package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"time"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/model"
	"repro/internal/tools"
)

// client is one closed-loop load generator: one goroutine, one
// connection, its own seeded choice stream.
type client struct {
	idx  int
	raw  *davclient.Client
	dav  spanDav
	view spanViewer
	data core.DataStorage
	tk   *track // nil unless spans are recorded
	m    *meter // nil for the plain client the timed runs use
	rng  *rand.Rand
	n    int // operations started so far
}

// newClient connects to base. A plain client is davclient as cmd/dav
// builds it (Persistent, DOM parser); a metered one routes through a
// meter so requests, bytes and — given a recorder — spans are seen.
func newClient(base string, idx int, seed int64, metered bool, rec *recorder) (*client, error) {
	c := &client{idx: idx, rng: rand.New(rand.NewSource(seed*7919 + int64(idx)))}
	cfg := davclient.Config{BaseURL: base, Persistent: true}
	if rec != nil {
		c.tk = &track{rec: rec}
	}
	if metered {
		c.m = newMeter(c.tk)
		cfg.Transport = c.m
	}
	raw, err := davclient.New(cfg)
	if err != nil {
		return nil, err
	}
	c.raw = raw
	c.dav = spanDav{raw, c.tk}
	c.data = spanStorage{core.NewDAVStorage(raw), c.tk}
	c.view = spanViewer{tools.NewCalcViewer(c.data), c.tk}
	return c, nil
}

func (c *client) close() { c.raw.Close() }

// A workload builds its dataset through one client and then serves
// numbered operations to each client; op verifies what came back and
// returns an error for anything wrong. Everything it sends is a pure
// function of the seed it was made with and the client's choice stream.
type workload interface {
	populate(c *client) error
	op(c *client, n int) error
	// probePaths names a document and a collection of the dataset for
	// the isolated store calls.
	probePaths() (doc, dir string)
}

// spec describes one workload to the runner.
type spec struct {
	name    string
	clients int
	warmOps int // per client, part of set-up
	why     string
	make    func(seed int64, short bool) workload
}

// Fixed order: bulk copy is the most sensitive to what ran before it,
// so it goes first.
var specs = []spec{
	{"doc_transfer", 1, 100,
		"Table 2's shape: 8 MiB PUT+GET moves bytes through net/http and store.Put/Get while every XML layer idles",
		func(seed int64, short bool) workload { return newDocTransfer(seed, short) }},
	{"propfind_sweep", 1, 50,
		"Table 1's headline row: Depth-1 PROPFIND of 5 of 50 properties on 50 documents, XML-bound on both ends, no writes",
		func(seed int64, short bool) workload { return newPropfindSweep(seed) }},
	{"calc_browse", 1, 300,
		"Table 3's shape: CalcViewer.Load of a random calculation, 11 small requests, property databases 3x the handle cache",
		func(seed int64, short bool) workload { return newCalcBrowse(short) }},
	{"author_mix", 2, 150,
		"two clients each cycling MKCOL/PUT/PROPPATCH/PROPFIND/GET/COPY/DELETE: journal, path locks and DBM writes beside reads",
		func(seed int64, short bool) workload { return newAuthorMix(seed) }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// seededText returns n characters that survive XML and whitespace
// trimming unchanged.
func seededText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// variants is a set of same-sized documents cut from one seeded buffer
// at different offsets, with their checksums, so successive writes to
// one path differ and a stale read cannot pass for a fresh one.
type variants struct {
	base []byte
	size int
	crc  []uint32
}

const variantStep = 4096

func newVariants(rng *rand.Rand, size, count int) variants {
	v := variants{base: make([]byte, size+variantStep*(count-1)), size: size}
	rng.Read(v.base)
	for k := 0; k < count; k++ {
		v.crc = append(v.crc, crc32.ChecksumIEEE(v.body(k)))
	}
	return v
}

func (v variants) body(k int) []byte { return v.base[k*variantStep : k*variantStep+v.size] }

// getAndCheck GETs p and compares length and CRC32 with variant k.
func (v variants) getAndCheck(c *client, p string, k int) error {
	h := crc32.NewIEEE()
	n, err := c.dav.GetTo(p, h)
	if err != nil {
		return err
	}
	if n != int64(v.size) || h.Sum32() != v.crc[k] {
		return fmt.Errorf("GET %s: %d bytes crc %08x, want %d bytes crc %08x", p, n, h.Sum32(), v.size, v.crc[k])
	}
	return nil
}

// ---- doc_transfer ----

type docTransfer struct {
	docs  variants
	slots int
}

func newDocTransfer(seed int64, short bool) *docTransfer {
	size := 8 << 20
	if short {
		size = 1 << 20
	}
	return &docTransfer{docs: newVariants(rand.New(rand.NewSource(seed)), size, 16), slots: 8}
}

func slotPath(i int) string { return fmt.Sprintf("/docs/slot%d.bin", i) }

func (w *docTransfer) populate(c *client) error {
	if err := c.dav.Mkcol("/docs"); err != nil {
		return err
	}
	for i := 0; i < w.slots; i++ {
		if err := c.dav.Put(slotPath(i), bytes.NewReader(w.docs.body(0)), "application/octet-stream"); err != nil {
			return err
		}
	}
	return nil
}

func (w *docTransfer) op(c *client, _ int) error {
	p, k := slotPath(c.rng.Intn(w.slots)), c.rng.Intn(len(w.docs.crc))
	if err := c.dav.Put(p, bytes.NewReader(w.docs.body(k)), "application/octet-stream"); err != nil {
		return err
	}
	return w.docs.getAndCheck(c, p, k)
}

func (w *docTransfer) probePaths() (string, string) { return slotPath(0), "/docs" }

// ---- propfind_sweep ----

// Table 1's configuration: 50 objects, 50 properties each, 1 KiB per
// value, 5 of them asked for.
const (
	sweepDocs     = 50
	sweepProps    = 50
	sweepValue    = 1024
	sweepSelected = 5
)

type propfindSweep struct {
	names  []xml.Name
	values map[string][]string // href → value per property index
	bodies [][]byte
}

const benchNS = "bench:"

func newPropfindSweep(seed int64) *propfindSweep {
	rng := rand.New(rand.NewSource(seed))
	w := &propfindSweep{values: map[string][]string{}}
	for i := 0; i < sweepProps; i++ {
		w.names = append(w.names, xml.Name{Space: benchNS, Local: fmt.Sprintf("p%02d", i)})
	}
	for _, href := range w.hrefs() {
		vals := make([]string, sweepProps)
		for i := range vals {
			vals[i] = seededText(rng, sweepValue)
		}
		w.values[href] = vals
		w.bodies = append(w.bodies, []byte(seededText(rng, 256)))
	}
	return w
}

// hrefs lists the collection and its documents; the collection carries
// the same 50 properties, which makes 51 property databases.
func (w *propfindSweep) hrefs() []string {
	out := []string{"/data"}
	for i := 0; i < sweepDocs; i++ {
		out = append(out, fmt.Sprintf("/data/doc%02d.dat", i))
	}
	return out
}

func (w *propfindSweep) populate(c *client) error {
	if err := c.dav.Mkcol("/data"); err != nil {
		return err
	}
	for i, href := range w.hrefs() {
		if i > 0 {
			if err := c.dav.Put(href, bytes.NewReader(w.bodies[i]), "application/octet-stream"); err != nil {
				return err
			}
		}
		props := make([]davproto.Property, sweepProps)
		for j, name := range w.names {
			props[j] = davproto.NewTextProperty(name.Space, name.Local, w.values[href][j])
		}
		if err := c.dav.SetProps(href, props...); err != nil {
			return err
		}
	}
	return nil
}

func (w *propfindSweep) op(c *client, _ int) error {
	picked := c.rng.Perm(sweepProps)[:sweepSelected]
	names := make([]xml.Name, sweepSelected)
	for i, j := range picked {
		names[i] = w.names[j]
	}
	ms, err := c.dav.PropFindSelected("/data", davproto.Depth1, names...)
	if err != nil {
		return err
	}
	if len(ms.Responses) != sweepDocs+1 {
		return fmt.Errorf("PROPFIND /data: %d responses, want %d", len(ms.Responses), sweepDocs+1)
	}
	for _, r := range ms.Responses {
		want, ok := w.values[strings.TrimSuffix(r.Href, "/")]
		if !ok {
			return fmt.Errorf("PROPFIND /data: unexpected href %q", r.Href)
		}
		got := davproto.PropsByName(r.Propstats)
		if len(got) != sweepSelected {
			return fmt.Errorf("PROPFIND %s: %d properties with 200, want %d", r.Href, len(got), sweepSelected)
		}
		for _, j := range picked {
			if v := got[w.names[j]].Text(); v != want[j] {
				return fmt.Errorf("PROPFIND %s: property %s is %d bytes and differs from what was set", r.Href, w.names[j].Local, len(v))
			}
		}
	}
	return nil
}

func (w *propfindSweep) probePaths() (string, string) { return "/data/doc00.dat", "/data" }

// ---- calc_browse ----

type calcBrowse struct {
	calcs     int
	summaries []string
}

func newCalcBrowse(short bool) *calcBrowse {
	if short {
		return &calcBrowse{calcs: 8}
	}
	return &calcBrowse{calcs: 96}
}

func calcPath(i int) string { return fmt.Sprintf("/aqueous/calc-%03d", i) }

// created is the timestamp given to every object: core fills in
// time.Now() otherwise, and RFC3339Nano drops trailing zeros, which
// would make the stored bytes vary from run to run.
var created = time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC)

// populate builds the Table 3 calculation (UO2·15H2O, STO-3G, one
// energy task with its generated input deck, one job, the synthetic
// runner's three output properties) 96 times through core.DAVStorage.
// Each calculation owns 8 property databases, 770 in all against a
// 256-handle cache.
func (w *calcBrowse) populate(c *client) error {
	s := c.data
	if err := s.CreateProject("/aqueous", model.Project{Name: "aqueous",
		Description: "uranyl hydration study", Created: created}); err != nil {
		return err
	}
	mol, basis := chem.MakeUO2nH2O(15), chem.STO3G()
	props := model.SyntheticRunner{GridPoints: 16}.Run(mol, model.TaskEnergy)
	for i := 0; i < w.calcs; i++ {
		p := calcPath(i)
		calc := model.Calculation{Name: fmt.Sprintf("calc-%03d", i), Theory: "DFT",
			State: model.StateReady, Created: created}
		// No basis block in the deck: GenerateInputDeck writes it in map
		// order, which would make the stored bytes differ between runs.
		deck, err := model.GenerateInputDeck(&calc, mol, nil, &model.Task{Kind: model.TaskEnergy})
		if err != nil {
			return err
		}
		steps := []func() error{
			func() error { return s.CreateCalculation(p, calc) },
			func() error { return s.SaveMolecule(p, mol, chem.FormatXYZ) },
			func() error { return s.SaveBasis(p, basis) },
			func() error {
				return s.SaveTask(p, model.Task{Name: "energy", Kind: model.TaskEnergy, Sequence: 1, InputDeck: deck})
			},
			func() error {
				return s.SaveJob(p, model.Job{Host: "mpp2.emsl.pnl.gov", Queue: "large", BatchID: "88123",
					NodeCount: 64, Status: model.JobDone, SubmitTime: created, StartTime: created, EndTime: created})
			},
		}
		for _, prop := range props {
			prop := prop
			steps = append(steps, func() error { return s.SaveProperty(p, prop) })
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return fmt.Errorf("populate %s: %w", p, err)
			}
		}
	}
	// The expected summaries come from one Load each, checked against
	// what was just stored; later Loads must reproduce them exactly.
	values := 0
	for _, prop := range props {
		values += len(prop.Values)
	}
	for i := 0; i < w.calcs; i++ {
		sum, err := c.view.Load(calcPath(i))
		if err != nil {
			return err
		}
		head := fmt.Sprintf("calc-%03d (%s): %d properties", i, mol.Formula(), len(props))
		tail := fmt.Sprintf("; %d values total", values)
		if !strings.HasPrefix(sum, head) || !strings.HasSuffix(sum, tail) {
			return fmt.Errorf("populate %s: summary %q does not describe what was stored", calcPath(i), sum)
		}
		w.summaries = append(w.summaries, sum)
	}
	return nil
}

func (w *calcBrowse) op(c *client, _ int) error {
	i := c.rng.Intn(w.calcs)
	sum, err := c.view.Load(calcPath(i))
	if err != nil {
		return err
	}
	if sum != w.summaries[i] {
		return fmt.Errorf("Load %s: summary %q, want %q", calcPath(i), sum, w.summaries[i])
	}
	return nil
}

func (w *calcBrowse) probePaths() (string, string) {
	return calcPath(0) + "/molecule", calcPath(0)
}

// ---- author_mix ----

type authorMix struct {
	decks, outputs variants
	notes          []string // 1 KiB annotation variants
}

func newAuthorMix(seed int64) *authorMix {
	rng := rand.New(rand.NewSource(seed))
	w := &authorMix{decks: newVariants(rng, 4<<10, 16), outputs: newVariants(rng, 64<<10, 16)}
	for i := 0; i < 16; i++ {
		w.notes = append(w.notes, seededText(rng, 1024))
	}
	return w
}

func authorDir(client int) string { return fmt.Sprintf("/author/c%d", client) }

// populate leaves one finished calculation directory per client in
// place, so the tree is never empty and bytes stored per user byte has
// something to divide by.
func (w *authorMix) populate(c *client) error {
	if err := c.dav.Mkcol("/author"); err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		if err := c.dav.Mkcol(authorDir(k)); err != nil {
			return err
		}
		if err := w.author(c, authorDir(k)+"/seed", 0, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// author writes one calculation directory: the five mutations that
// open an authoring cycle.
func (w *authorMix) author(c *client, dir string, deck, out, note int) error {
	if err := c.dav.Mkcol(dir); err != nil {
		return err
	}
	if err := c.dav.Put(dir+"/input.nw", bytes.NewReader(w.decks.body(deck)), "text/plain"); err != nil {
		return err
	}
	if err := c.dav.SetProps(dir,
		davproto.NewTextProperty(benchNS, "theory", "DFT"),
		davproto.NewTextProperty(benchNS, "basis", "STO-3G"),
		davproto.NewTextProperty(benchNS, "formula", "H30O17U"),
		davproto.NewTextProperty(benchNS, "state", "created"),
		davproto.NewTextProperty(benchNS, "annotation", w.notes[note]),
	); err != nil {
		return err
	}
	if err := c.dav.Put(dir+"/output.out", bytes.NewReader(w.outputs.body(out)), "text/plain"); err != nil {
		return err
	}
	return c.dav.SetProps(dir, davproto.NewTextProperty(benchNS, "state", "complete"))
}

// op is one authoring cycle: ten requests, seven of them journaled
// mutations, leaving the tree as it found it.
func (w *authorMix) op(c *client, n int) error {
	dir := fmt.Sprintf("%s/w%06d", authorDir(c.idx), n)
	deck, out, note := c.rng.Intn(16), c.rng.Intn(16), c.rng.Intn(16)
	if err := w.author(c, dir, deck, out, note); err != nil {
		return err
	}
	ms, err := c.dav.PropFindAll(dir, davproto.Depth1)
	if err != nil {
		return err
	}
	if err := w.checkListing(ms, dir, note); err != nil {
		return err
	}
	if err := w.decks.getAndCheck(c, dir+"/input.nw", deck); err != nil {
		return err
	}
	if err := c.dav.Copy(dir, dir+"-copy"); err != nil {
		return err
	}
	if err := c.dav.Delete(dir); err != nil {
		return err
	}
	return c.dav.Delete(dir + "-copy")
}

func (w *authorMix) checkListing(ms davproto.Multistatus, dir string, note int) error {
	wantLen := map[string]string{
		dir + "/input.nw":   fmt.Sprint(w.decks.size),
		dir + "/output.out": fmt.Sprint(w.outputs.size),
	}
	if len(ms.Responses) != 3 {
		return fmt.Errorf("PROPFIND %s: %d responses, want 3", dir, len(ms.Responses))
	}
	for _, r := range ms.Responses {
		props := davproto.PropsByName(r.Propstats)
		text := func(space, local string) string { return props[xml.Name{Space: space, Local: local}].Text() }
		href := strings.TrimSuffix(r.Href, "/")
		if href == dir {
			if text(benchNS, "state") != "complete" || text(benchNS, "annotation") != w.notes[note] ||
				text(benchNS, "theory") != "DFT" {
				return fmt.Errorf("PROPFIND %s: collection properties differ from what was set", dir)
			}
			continue
		}
		if want, ok := wantLen[href]; !ok || text(davproto.NS, "getcontentlength") != want {
			return fmt.Errorf("PROPFIND %s: member %q has length %q, want %q", dir, r.Href, text(davproto.NS, "getcontentlength"), want)
		}
	}
	return nil
}

func (w *authorMix) probePaths() (string, string) {
	return authorDir(0) + "/seed/input.nw", authorDir(0) + "/seed"
}
