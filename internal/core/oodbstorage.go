package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chem"
	"repro/internal/model"
	"repro/internal/oodb"
)

// oodbNode is the persistent object the OODB schema is built from: a
// typed node with gob-encoded payload and named children, forming the
// object graph the Ecce 1.5 tools navigated. The payload format is the
// database's proprietary binary encoding — opaque to any other
// application, which is precisely the paper's complaint.
type oodbNode struct {
	Type     string
	Meta     map[string]string
	Blob     []byte
	Children map[string]oodb.OID
}

// treeRoot is the named root the whole Ecce tree hangs from.
const treeRoot = "ecce-tree"

// OODBStorage implements DataStorage over the object database — the
// Ecce 1.5 baseline. It deliberately does NOT implement Annotator or
// Finder: third parties cannot reach into the proprietary object
// format, which is the motivating limitation for the DAV redesign.
type OODBStorage struct {
	c *oodb.Client
}

var _ DataStorage = (*OODBStorage)(nil)

// SchemaFingerprint is the schema hash Ecce-model clients must present
// to the OODB server.
func SchemaFingerprint() string {
	return oodb.SchemaHash(model.ClassDescriptors())
}

// NewOODBStorage wraps a connected OODB client and ensures the tree
// root exists.
func NewOODBStorage(c *oodb.Client) (*OODBStorage, error) {
	s := &OODBStorage{c: c}
	if _, err := c.GetRoot(treeRoot); err != nil {
		if !errors.Is(err, oodb.ErrNotFound) {
			return nil, err
		}
		oid, err := s.putNode(0, &oodbNode{Type: "root", Children: map[string]oodb.OID{}})
		if err != nil {
			return nil, err
		}
		if err := c.SetRoot(treeRoot, oid); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Client exposes the underlying OODB client.
func (s *OODBStorage) Client() *oodb.Client { return s.c }

// Close implements DataStorage.
func (s *OODBStorage) Close() error { return s.c.Close() }

func encodeNode(n *oodbNode) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *OODBStorage) putNode(oid oodb.OID, n *oodbNode) (oodb.OID, error) {
	data, err := encodeNode(n)
	if err != nil {
		return 0, err
	}
	return s.c.Store(oid, data)
}

func (s *OODBStorage) getNode(oid oodb.OID) (*oodbNode, error) {
	data, err := s.c.Fetch(oid)
	if err != nil {
		return nil, err
	}
	var n oodbNode
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&n); err != nil {
		return nil, fmt.Errorf("core: corrupt OODB node %s: %w", oid, err)
	}
	if n.Children == nil {
		n.Children = map[string]oodb.OID{}
	}
	if n.Meta == nil {
		n.Meta = map[string]string{}
	}
	return &n, nil
}

// splitPath breaks an object path into segments.
func splitPath(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// resolve walks from the tree root to the node at path.
func (s *OODBStorage) resolve(p string) (oodb.OID, *oodbNode, error) {
	oid, err := s.c.GetRoot(treeRoot)
	if err != nil {
		return 0, nil, err
	}
	node, err := s.getNode(oid)
	if err != nil {
		return 0, nil, err
	}
	for _, seg := range splitPath(p) {
		child, ok := node.Children[seg]
		if !ok {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotFound, p)
		}
		oid = child
		if node, err = s.getNode(oid); err != nil {
			return 0, nil, err
		}
	}
	return oid, node, nil
}

// createChild inserts a new node under the parent of path, failing if
// the name is taken.
func (s *OODBStorage) createChild(p string, n *oodbNode) error {
	segs := splitPath(p)
	if len(segs) == 0 {
		return fmt.Errorf("%w: empty path", ErrExists)
	}
	parentPath := "/" + strings.Join(segs[:len(segs)-1], "/")
	name := segs[len(segs)-1]
	parentOID, parent, err := s.resolve(parentPath)
	if err != nil {
		return err
	}
	if _, taken := parent.Children[name]; taken {
		return fmt.Errorf("%w: %s", ErrExists, p)
	}
	oid, err := s.putNode(0, n)
	if err != nil {
		return err
	}
	parent.Children[name] = oid
	_, err = s.putNode(parentOID, parent)
	return err
}

// upsertChild creates or replaces the child node at path, preserving
// an existing node's children map when replacing.
func (s *OODBStorage) upsertChild(p string, n *oodbNode) error {
	if oid, existing, err := s.resolve(p); err == nil {
		if n.Children == nil || len(n.Children) == 0 {
			n.Children = existing.Children
		}
		_, err = s.putNode(oid, n)
		return err
	}
	return s.createChild(p, n)
}

// CreateProject implements DataStorage.
func (s *OODBStorage) CreateProject(p string, proj model.Project) error {
	created := proj.Created
	if created.IsZero() {
		created = time.Now()
	}
	return s.createChild(p, &oodbNode{
		Type: string(TypeProject),
		Meta: map[string]string{
			"name":        proj.Name,
			"description": proj.Description,
			"created":     created.UTC().Format(time.RFC3339Nano),
		},
		Children: map[string]oodb.OID{},
	})
}

// LoadProject implements DataStorage.
func (s *OODBStorage) LoadProject(p string) (model.Project, error) {
	_, node, err := s.resolve(p)
	if err != nil {
		return model.Project{}, err
	}
	if node.Type != string(TypeProject) {
		return model.Project{}, fmt.Errorf("%w: %s is not a project", ErrNotFound, p)
	}
	proj := model.Project{Name: node.Meta["name"], Description: node.Meta["description"]}
	if t, err := time.Parse(time.RFC3339Nano, node.Meta["created"]); err == nil {
		proj.Created = t
	}
	return proj, nil
}

// List implements DataStorage.
func (s *OODBStorage) List(p string) ([]Entry, error) {
	_, node, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	base := "/" + strings.Join(splitPath(p), "/")
	if base == "/" {
		base = ""
	}
	entries := make([]Entry, 0, len(node.Children))
	for name, oid := range node.Children {
		child, err := s.getNode(oid)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{Name: name, Path: base + "/" + name, Type: ObjectType(child.Type)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}

// CreateCalculation implements DataStorage.
func (s *OODBStorage) CreateCalculation(p string, c model.Calculation) error {
	if err := s.createChild(p, &oodbNode{Type: string(TypeCalculation),
		Children: map[string]oodb.OID{}}); err != nil {
		return err
	}
	return s.SaveCalculation(p, c)
}

// SaveCalculation implements DataStorage.
func (s *OODBStorage) SaveCalculation(p string, c model.Calculation) error {
	oid, node, err := s.resolve(p)
	if err != nil {
		return err
	}
	if node.Type != string(TypeCalculation) {
		return fmt.Errorf("%w: %s is not a calculation", ErrNotFound, p)
	}
	created := c.Created
	if created.IsZero() {
		created = time.Now()
	}
	node.Meta = map[string]string{
		"name":       c.Name,
		"state":      c.State.String(),
		"theory":     c.Theory,
		"annotation": c.Annotation,
		"created":    created.UTC().Format(time.RFC3339Nano),
	}
	_, err = s.putNode(oid, node)
	return err
}

// LoadCalculation implements DataStorage.
func (s *OODBStorage) LoadCalculation(p string) (model.Calculation, error) {
	_, node, err := s.resolve(p)
	if err != nil {
		return model.Calculation{}, err
	}
	if node.Type != string(TypeCalculation) {
		return model.Calculation{}, fmt.Errorf("%w: %s is not a calculation", ErrNotFound, p)
	}
	c := model.Calculation{
		Name:       node.Meta["name"],
		Theory:     node.Meta["theory"],
		Annotation: node.Meta["annotation"],
	}
	if st, err := model.ParseState(node.Meta["state"]); err == nil {
		c.State = st
	}
	if t, err := time.Parse(time.RFC3339Nano, node.Meta["created"]); err == nil {
		c.Created = t
	}
	return c, nil
}

// gobBlob encodes any value in the proprietary format.
func gobBlob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveMolecule implements DataStorage. The format argument is ignored:
// the OODB stores the object in its binary encoding, inaccessible to
// other tools (the paper's point).
func (s *OODBStorage) SaveMolecule(calcPath string, mol *chem.Molecule, _ string) error {
	blob, err := gobBlob(mol)
	if err != nil {
		return err
	}
	return s.upsertChild(calcPath+"/"+memberMolecule, &oodbNode{
		Type: string(TypeMolecule), Blob: blob,
	})
}

// LoadMolecule implements DataStorage.
func (s *OODBStorage) LoadMolecule(calcPath string) (*chem.Molecule, error) {
	_, node, err := s.resolve(calcPath + "/" + memberMolecule)
	if err != nil {
		return nil, err
	}
	var mol chem.Molecule
	if err := gob.NewDecoder(bytes.NewReader(node.Blob)).Decode(&mol); err != nil {
		return nil, fmt.Errorf("core: corrupt molecule blob: %w", err)
	}
	return &mol, nil
}

// SaveBasis implements DataStorage.
func (s *OODBStorage) SaveBasis(calcPath string, bs *chem.BasisSet) error {
	blob, err := gobBlob(bs)
	if err != nil {
		return err
	}
	return s.upsertChild(calcPath+"/"+memberBasis, &oodbNode{
		Type: string(TypeBasisSet), Blob: blob,
	})
}

// LoadBasis implements DataStorage.
func (s *OODBStorage) LoadBasis(calcPath string) (*chem.BasisSet, error) {
	_, node, err := s.resolve(calcPath + "/" + memberBasis)
	if err != nil {
		return nil, err
	}
	var bs chem.BasisSet
	if err := gob.NewDecoder(bytes.NewReader(node.Blob)).Decode(&bs); err != nil {
		return nil, fmt.Errorf("core: corrupt basis blob: %w", err)
	}
	return &bs, nil
}

// SaveTask implements DataStorage.
func (s *OODBStorage) SaveTask(calcPath string, t model.Task) error {
	if _, _, err := s.resolve(calcPath + "/" + memberTasks); err != nil {
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		if err := s.createChild(calcPath+"/"+memberTasks, &oodbNode{
			Type: "container", Children: map[string]oodb.OID{}}); err != nil {
			return err
		}
	}
	blob, err := gobBlob(&t)
	if err != nil {
		return err
	}
	return s.upsertChild(calcPath+"/"+memberTasks+"/"+taskDocName(t), &oodbNode{
		Type: string(TypeTask), Blob: blob,
	})
}

// LoadTasks implements DataStorage.
func (s *OODBStorage) LoadTasks(calcPath string) ([]model.Task, error) {
	_, node, err := s.resolve(calcPath + "/" + memberTasks)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	var tasks []model.Task
	for _, oid := range node.Children {
		child, err := s.getNode(oid)
		if err != nil {
			return nil, err
		}
		var t model.Task
		if err := gob.NewDecoder(bytes.NewReader(child.Blob)).Decode(&t); err != nil {
			return nil, fmt.Errorf("core: corrupt task blob: %w", err)
		}
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Sequence < tasks[j].Sequence })
	return tasks, nil
}

// SaveJob implements DataStorage.
func (s *OODBStorage) SaveJob(calcPath string, j model.Job) error {
	blob, err := gobBlob(&j)
	if err != nil {
		return err
	}
	return s.upsertChild(calcPath+"/"+memberJob, &oodbNode{Type: string(TypeJob), Blob: blob})
}

// LoadJob implements DataStorage.
func (s *OODBStorage) LoadJob(calcPath string) (model.Job, error) {
	_, node, err := s.resolve(calcPath + "/" + memberJob)
	if err != nil {
		return model.Job{}, err
	}
	var j model.Job
	if err := gob.NewDecoder(bytes.NewReader(node.Blob)).Decode(&j); err != nil {
		return model.Job{}, fmt.Errorf("core: corrupt job blob: %w", err)
	}
	return j, nil
}

// SaveProperty implements DataStorage.
func (s *OODBStorage) SaveProperty(calcPath string, p model.Property) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, _, err := s.resolve(calcPath + "/" + memberProperties); err != nil {
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		if err := s.createChild(calcPath+"/"+memberProperties, &oodbNode{
			Type: "container", Children: map[string]oodb.OID{}}); err != nil {
			return err
		}
	}
	blob, err := gobBlob(&p)
	if err != nil {
		return err
	}
	return s.upsertChild(calcPath+"/"+memberProperties+"/"+propDocName(p.Name), &oodbNode{
		Type: string(TypeProperty), Blob: blob,
	})
}

// LoadProperty implements DataStorage.
func (s *OODBStorage) LoadProperty(calcPath, name string) (model.Property, error) {
	_, node, err := s.resolve(calcPath + "/" + memberProperties + "/" + propDocName(name))
	if err != nil {
		return model.Property{}, err
	}
	var p model.Property
	if err := gob.NewDecoder(bytes.NewReader(node.Blob)).Decode(&p); err != nil {
		return model.Property{}, fmt.Errorf("core: corrupt property blob: %w", err)
	}
	return p, nil
}

// LoadProperties implements DataStorage.
func (s *OODBStorage) LoadProperties(calcPath string) ([]model.Property, error) {
	_, node, err := s.resolve(calcPath + "/" + memberProperties)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	var out []model.Property
	for _, oid := range node.Children {
		child, err := s.getNode(oid)
		if err != nil {
			return nil, err
		}
		var p model.Property
		if err := gob.NewDecoder(bytes.NewReader(child.Blob)).Decode(&p); err != nil {
			return nil, fmt.Errorf("core: corrupt property blob: %w", err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Prefetch implements DataStorage: the object database is read one
// object at a time, each fetch its own round trip.
func (s *OODBStorage) Prefetch(string) (func(), error) { return func() {}, nil }

// SaveRawFile implements DataStorage. Note: the paper records that
// Ecce 1.5 kept raw files on local disk with only path references in
// the OODB; storing the bytes here is a generous baseline.
func (s *OODBStorage) SaveRawFile(calcPath, name string, data []byte, _ string) error {
	return s.upsertChild(calcPath+"/"+name, &oodbNode{
		Type: string(TypeDocument), Blob: append([]byte(nil), data...),
	})
}

// LoadRawFile implements DataStorage.
func (s *OODBStorage) LoadRawFile(calcPath, name string) ([]byte, error) {
	_, node, err := s.resolve(calcPath + "/" + name)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), node.Blob...), nil
}

// Copy implements DataStorage with a recursive client-side clone — the
// OODB has no server-side tree copy, so every object crosses the wire
// twice (fetch + store).
func (s *OODBStorage) Copy(src, dst string) error {
	srcOID, _, err := s.resolve(src)
	if err != nil {
		return err
	}
	if _, _, err := s.resolve(dst); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	newOID, err := s.cloneSubtree(srcOID)
	if err != nil {
		return err
	}
	segs := splitPath(dst)
	parentPath := "/" + strings.Join(segs[:len(segs)-1], "/")
	name := segs[len(segs)-1]
	parentOID, parent, err := s.resolve(parentPath)
	if err != nil {
		return err
	}
	parent.Children[name] = newOID
	_, err = s.putNode(parentOID, parent)
	return err
}

func (s *OODBStorage) cloneSubtree(oid oodb.OID) (oodb.OID, error) {
	node, err := s.getNode(oid)
	if err != nil {
		return 0, err
	}
	clone := &oodbNode{
		Type:     node.Type,
		Blob:     append([]byte(nil), node.Blob...),
		Meta:     map[string]string{},
		Children: map[string]oodb.OID{},
	}
	for k, v := range node.Meta {
		clone.Meta[k] = v
	}
	for name, child := range node.Children {
		cc, err := s.cloneSubtree(child)
		if err != nil {
			return 0, err
		}
		clone.Children[name] = cc
	}
	return s.putNode(0, clone)
}

// Delete implements DataStorage, removing the subtree object by
// object.
func (s *OODBStorage) Delete(p string) error {
	segs := splitPath(p)
	if len(segs) == 0 {
		return fmt.Errorf("%w: cannot delete the root", ErrNotFound)
	}
	parentPath := "/" + strings.Join(segs[:len(segs)-1], "/")
	name := segs[len(segs)-1]
	parentOID, parent, err := s.resolve(parentPath)
	if err != nil {
		return err
	}
	oid, ok := parent.Children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if err := s.deleteSubtree(oid); err != nil {
		return err
	}
	delete(parent.Children, name)
	_, err = s.putNode(parentOID, parent)
	return err
}

func (s *OODBStorage) deleteSubtree(oid oodb.OID) error {
	node, err := s.getNode(oid)
	if err != nil {
		return err
	}
	for _, child := range node.Children {
		if err := s.deleteSubtree(child); err != nil {
			return err
		}
	}
	return s.c.Delete(oid)
}
