// Package core is the paper's primary contribution: the open,
// metadata-driven data access architecture of Figure 2. It defines the
// protocol-independent Data Storage Interface that the object/factory
// layer programs against, and two implementations — DAVStorage (the
// new Ecce 2.0 architecture, mapping the Figure 3 object model onto
// DAV collections, documents and properties per Figure 4) and
// OODBStorage (the Ecce 1.5 baseline over the object database).
//
// Because the Ecce tools in internal/tools depend only on the
// interface, swapping the persistence architecture requires no tool
// changes — the decoupling claim the paper's design section makes.
// The DAV implementation additionally supports the open-architecture
// scenarios of the Discussion section (third-party annotation,
// metadata discovery) which the OODB baseline structurally cannot;
// those methods live on the separate Annotator and Finder interfaces
// that only DAVStorage satisfies.
package core

import (
	"encoding/xml"
	"errors"

	"repro/internal/chem"
	"repro/internal/model"
)

// EcceNS is the single metadata namespace the paper defines ("a single
// 'ecce' namespace was defined").
const EcceNS = "ecce:"

// EcceName qualifies a local name in the ecce namespace.
func EcceName(local string) xml.Name { return xml.Name{Space: EcceNS, Local: local} }

// Metadata vocabulary. Each name is a dead property in the ecce
// namespace.
var (
	PropObjectType  = EcceName("objecttype")
	PropDescription = EcceName("description")
	PropState       = EcceName("state")
	PropTheory      = EcceName("theory")
	PropAnnotation  = EcceName("annotation")
	PropCreatedAt   = EcceName("created")
	PropFormat      = EcceName("format")   // molecule encoding: xyz | pdb
	PropFormula     = EcceName("formula")  // empirical formula, Hill order
	PropSymmetry    = EcceName("symmetry") // point group
	PropCharge      = EcceName("charge")
	PropBasisName   = EcceName("basisname")
	PropTaskKind    = EcceName("taskkind")
	PropSequence    = EcceName("sequence")
	PropPropName    = EcceName("propertyname") // output property's real name
	PropUnits       = EcceName("units")
	PropDims        = EcceName("dims") // space-separated shape
	PropJobHost     = EcceName("jobhost")
	PropJobQueue    = EcceName("jobqueue")
	PropJobBatchID  = EcceName("jobbatchid")
	PropJobNodes    = EcceName("jobnodes")
	PropJobStatus   = EcceName("jobstatus")
)

// ObjectType tags what an entry in the store represents.
type ObjectType string

// Object types in the ecce:objecttype property.
const (
	TypeProject     ObjectType = "project"
	TypeCalculation ObjectType = "calculation"
	TypeMolecule    ObjectType = "molecule"
	TypeBasisSet    ObjectType = "basisset"
	TypeTask        ObjectType = "task"
	TypeProperty    ObjectType = "property"
	TypeJob         ObjectType = "job"
	TypeDocument    ObjectType = "document" // raw file without Ecce semantics
)

// Entry describes one object in a listing.
type Entry struct {
	Name string
	Path string
	Type ObjectType
}

// Errors returned by storage implementations.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("core: object not found")
	// ErrExists reports a name collision.
	ErrExists = errors.New("core: object already exists")
)

// DataStorage is the Data Storage Interface of Figure 2: everything
// the Ecce object/factory layer needs, with no protocol types leaking
// through. Paths are abstract object paths ("/Aqueous/uranyl-scf");
// the DAV implementation maps them 1:1 onto resource URLs, the OODB
// implementation onto an object graph.
type DataStorage interface {
	// CreateProject makes a project container at path.
	CreateProject(path string, p model.Project) error
	// LoadProject reads a project's metadata.
	LoadProject(path string) (model.Project, error)
	// List returns the Ecce objects directly inside a container.
	List(path string) ([]Entry, error)

	// CreateCalculation makes a calculation under a project.
	CreateCalculation(path string, c model.Calculation) error
	// SaveCalculation updates calculation metadata (state, annotation).
	SaveCalculation(path string, c model.Calculation) error
	// LoadCalculation reads calculation metadata.
	LoadCalculation(path string) (model.Calculation, error)

	// SaveMolecule stores the calculation's study subject in the given
	// chem format ("xyz" or "pdb").
	SaveMolecule(calcPath string, mol *chem.Molecule, format string) error
	// LoadMolecule reads the study subject back.
	LoadMolecule(calcPath string) (*chem.Molecule, error)

	// SaveBasis / LoadBasis manage the basis-set document.
	SaveBasis(calcPath string, bs *chem.BasisSet) error
	LoadBasis(calcPath string) (*chem.BasisSet, error)

	// SaveTask stores one task (with its input deck) in the
	// calculation's task sequence; LoadTasks returns them ordered.
	SaveTask(calcPath string, t model.Task) error
	LoadTasks(calcPath string) ([]model.Task, error)

	// SaveJob / LoadJob manage the execution record.
	SaveJob(calcPath string, j model.Job) error
	LoadJob(calcPath string) (model.Job, error)

	// SaveProperty stores one n-dimensional output property;
	// LoadProperties returns all of them; LoadProperty fetches one by
	// its real name.
	SaveProperty(calcPath string, p model.Property) error
	LoadProperty(calcPath, name string) (model.Property, error)
	LoadProperties(calcPath string) ([]model.Property, error)

	// SaveRawFile / LoadRawFile manage opaque files (input decks,
	// program output) attached to a calculation.
	SaveRawFile(calcPath, name string, data []byte, contentType string) error
	LoadRawFile(calcPath, name string) ([]byte, error)

	// Copy duplicates an entire object subtree (the Table 1 "copy
	// hierarchy" operation); Delete removes one.
	Copy(src, dst string) error
	Delete(path string) error

	// Close releases the storage connection.
	Close() error
}

// LoadBundle assembles a calculation's full state — the object/factory
// layer operation the Ecce tools use. Missing optional parts (basis,
// job, properties) are left nil/empty.
func LoadBundle(s DataStorage, calcPath string) (*model.CalculationBundle, error) {
	calc, err := s.LoadCalculation(calcPath)
	if err != nil {
		return nil, err
	}
	b := &model.CalculationBundle{Calc: calc}
	if b.Molecule, err = s.LoadMolecule(calcPath); err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	if b.Basis, err = s.LoadBasis(calcPath); err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	if b.Tasks, err = s.LoadTasks(calcPath); err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	if job, err := s.LoadJob(calcPath); err == nil {
		b.Job = &job
	} else if !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	if b.Properties, err = s.LoadProperties(calcPath); err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	return b, nil
}

// Annotator is the third-party annotation capability of the
// Discussion section: attach arbitrary metadata to any object without
// schema agreement. Only the open (DAV) architecture provides it.
type Annotator interface {
	// Annotate sets one metadata value (an XML-encodable string) under
	// the given qualified name on the object at path.
	Annotate(path string, name xml.Name, value string) error
	// ReadAnnotation reads one metadata value by qualified name.
	ReadAnnotation(path string, name xml.Name) (string, bool, error)
}

// Finder is the metadata-discovery capability ("applications could
// search the data store for DAV documents matching the formula
// metadata"). Only the open architecture provides it.
type Finder interface {
	// FindByMetadata walks the subtree at root and returns the paths
	// of objects whose property name satisfies pred. A nil pred
	// matches any present value.
	FindByMetadata(root string, name xml.Name, pred func(value string) bool) ([]string, error)
}
