package davserver

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/tools"
)

// The count ledger: for each of the benchmark's workload shapes, small
// enough for tier-1, the per-operation counts that do not depend on the
// machine's speed, pinned over a davd assembled by Build and driven by
// davclient. A change that moves one of them edits its row here, in the
// same diff, so the diff states the claim.
var ledger = []struct {
	name     string
	populate func(c *davclient.Client) error
	op       func(c *davclient.Client) error

	requests      int64 // HTTP requests per operation
	storeCalls    int64 // store.Store calls per operation
	responseBytes int64 // response body bytes per operation
	// maxAllocs is the ceiling on heap allocations per operation, client
	// and server together, as testing.AllocsPerRun counts them.
	maxAllocs float64
	// viewsReused: an operation repeated over unchanged data is handed
	// the very property maps the previous one was — the store walked no
	// DBM chain for it.
	viewsReused bool
}{
	{
		name:     "propfind_sweep",
		populate: populateSweep,
		op:       sweepOp,
		requests: 1,
		// StatWithProps of the collection, ListWithProps of its members.
		storeCalls: 2,
		// The 207 is byte-identical to the one built before the store kept
		// decoded property views.
		responseBytes: 277_770,
		// 1,424 measured on linux/amd64 with go1.24 (1,444 under -race;
		// 2,910 when the client read every property value into a tree;
		// 3,370 when each member's disk and database paths were derived
		// again from its resource path and its ETag formatted by fmt;
		// 6,640 when each request decoded all 51 databases again).
		// The ceiling leaves 12 % for net/http and runtime variation.
		maxAllocs:   1_600,
		viewsReused: true,
	},
	{
		name:     "doc_transfer",
		populate: populateTransfer,
		op:       transferOp,
		requests: 2,
		// PUT: the handler's StatWithProps, whose properties tell
		// auto-versioning whether the overwrite makes a version, and Put;
		// GET: Get (4 when the PUT made a Stat and, after the overwrite,
		// a PropGet of the version-control flag).
		storeCalls:    3,
		responseBytes: transferSize,
		// 536 measured on linux/amd64 with go1.24 (558 under -race; 610
		// with the PropGet; 612 when PUT staging and GetTo each
		// allocated a 32 KiB copy buffer per operation). The ceiling
		// leaves 15 %.
		maxAllocs: 620,
	},
	{
		name:     "calc_browse",
		populate: populateBrowse,
		op:       browseOp,
		// CalcViewer.Load is core.LoadBundle: DAVStorage.Prefetch sends
		// one Depth: infinity PROPFIND of the calculation, and the six
		// readers take their metadata from the listing and the bodies of
		// the molecule, the basis, the task and the three properties from
		// what DAVStorage kept of populate's Load, each under the ETag the
		// listing names (7 requests and 10 store calls when each body was
		// fetched again; 11 and 13 when each reader sent its own). The
		// store calls are the listing's StatWithProps and three
		// ListWithProps; the counts are the benchmark's at 96
		// calculations once each has been loaded.
		requests:   1,
		storeCalls: 4,
		// Three calculations stored with one fixed timestamp, so the
		// bytes are the same on every run. The listing alone: its 404
		// propstats name what each resource lacks of the 20 properties
		// it selects, and each of its seven documents' ETags carries a
		// 16-digit inode number (9,627 before the inode; 47,565 with the
		// six bodies, 41,870 before the one listing).
		responseBytes: 9_746,
		// 1,111 measured on linux/amd64 with go1.24 (1,134 under -race;
		// 2,379 with the six GETs, 3,393 for the eleven requests, 3,608
		// when the client also read every property value into a tree).
		// The ceiling leaves 15 %.
		maxAllocs: 1_280,
	},
	{
		name:     "author_mix",
		populate: populateAuthor,
		op:       authorOp,
		// One authoring cycle, one request per step; the store calls are
		// the benchmark's at one client. Each PROPPATCH reads the
		// collection once, and that read is its undo snapshot (27 when
		// the two PROPPATCHes also read each of their six properties
		// with a PropGet before writing it). COPY is its one copy_tree:
		// the store refuses an existing destination itself (21 when COPY
		// first Stat'ed its source and its destination).
		requests:   10,
		storeCalls: 19,
		// Two of the cycle's responses carry a document ETag, each with a
		// 16-digit inode number (8,499 before the inode; 8,423 when the
		// two PROPPATCH 207s were built from a DOM, which declared each
		// namespace once per response; the shared writer declares it on
		// each property, as PROPFIND's does).
		responseBytes: 8_533,
		// 3,732 measured on linux/amd64 with go1.24 (3,890 under -race;
		// 4,007 with the six PropGets; 4,543 when xmldom's writer
		// assigned prefixes with maps and formatted with fmt; 4,701 when
		// the client also read every property value into a tree). The
		// ceiling leaves 13 %.
		maxAllocs: 4_220,
	},
	{
		name:     "search_tagged",
		populate: populateTagged,
		op:       taggedOp,
		requests: 1,
		// SEARCH reads its scope as PROPFIND does: StatWithProps of the
		// collection, ListWithProps of its members (109 when it made one
		// Stat per resource and one PropGet per resource and name).
		storeCalls: 2,
		// Five responses, each the one selected property (919 when the
		// DOM-built 207 declared its namespace once per response).
		responseBytes: 995,
		// 1,053 measured on linux/amd64 with go1.24 (1,067 under -race;
		// 1,122 when the client read every property value into a tree;
		// 8,496 when each resource was resolved and each property read
		// and decoded on its own). The ceiling leaves 15 %.
		maxAllocs: 1_210,
	},
}

// The doc_transfer shape at the benchmark's -short size: a 1 MiB
// document PUT over the one already there, then read back through GetTo
// into a CRC-32. Two bodies alternate, so a stale read cannot pass.
const transferSize = 1 << 20

var (
	transferBodies [2][]byte
	transferCRCs   [2]uint32
	transferTurn   int
)

func populateTransfer(c *davclient.Client) error {
	rng := rand.New(rand.NewSource(1))
	for k := range transferBodies {
		transferBodies[k] = make([]byte, transferSize)
		rng.Read(transferBodies[k])
		transferCRCs[k] = crc32.ChecksumIEEE(transferBodies[k])
	}
	if err := c.Mkcol("/docs"); err != nil {
		return err
	}
	_, err := c.PutBytes("/docs/slot0.bin", transferBodies[0], "application/octet-stream")
	return err
}

func transferOp(c *davclient.Client) error {
	transferTurn++
	k := transferTurn % 2
	if _, err := c.PutBytes("/docs/slot0.bin", transferBodies[k], "application/octet-stream"); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	n, err := c.GetTo("/docs/slot0.bin", h)
	if err != nil {
		return err
	}
	if n != transferSize || h.Sum32() != transferCRCs[k] {
		return fmt.Errorf("GET: %d bytes crc %08x, want %d bytes crc %08x", n, h.Sum32(), transferSize, transferCRCs[k])
	}
	return nil
}

// The calc_browse shape (benchmark/workloads.go) over a few
// calculations instead of 96: the Table 3 calculation (UO2·15H2O,
// STO-3G, one energy task, one job, three output properties) stored
// through core.DAVStorage, then CalcViewer.Load of one calculation after
// another. Every object carries the same fixed timestamp, so the stored
// bytes, and with them the response bytes, are the same on every run.
const browseCalcs = 3

var (
	browseViewer    *tools.CalcViewer
	browseSummaries []string
	browseTurn      int
	browseCreated   = time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC)
)

func browsePath(i int) string { return fmt.Sprintf("/aqueous/calc-%03d", i) }

func populateBrowse(c *davclient.Client) error {
	s := core.NewDAVStorage(c)
	if err := s.CreateProject("/aqueous", model.Project{Name: "aqueous", Created: browseCreated}); err != nil {
		return err
	}
	mol, basis := chem.MakeUO2nH2O(15), chem.STO3G()
	props := model.SyntheticRunner{GridPoints: 16}.Run(mol, model.TaskEnergy)
	browseViewer, browseSummaries = tools.NewCalcViewer(s), nil
	for i := range browseCalcs {
		p := browsePath(i)
		calc := model.Calculation{Name: fmt.Sprintf("calc-%03d", i), Theory: "DFT",
			State: model.StateReady, Created: browseCreated}
		deck, err := model.GenerateInputDeck(&calc, mol, nil, &model.Task{Kind: model.TaskEnergy})
		if err != nil {
			return err
		}
		if err := errors.Join(
			s.CreateCalculation(p, calc),
			s.SaveMolecule(p, mol, chem.FormatXYZ),
			s.SaveBasis(p, basis),
			s.SaveTask(p, model.Task{Name: "energy", Kind: model.TaskEnergy, Sequence: 1, InputDeck: deck}),
			s.SaveJob(p, model.Job{Host: "mpp2.emsl.pnl.gov", Queue: "large", BatchID: "88123",
				NodeCount: 64, Status: model.JobDone, SubmitTime: browseCreated, StartTime: browseCreated, EndTime: browseCreated}),
		); err != nil {
			return err
		}
		for _, prop := range props {
			if err := s.SaveProperty(p, prop); err != nil {
				return err
			}
		}
		sum, err := browseViewer.Load(p)
		if err != nil {
			return err
		}
		browseSummaries = append(browseSummaries, sum)
	}
	return nil
}

func browseOp(*davclient.Client) error {
	browseTurn++
	i := browseTurn % browseCalcs
	sum, err := browseViewer.Load(browsePath(i))
	if err != nil {
		return err
	}
	if sum != browseSummaries[i] {
		return fmt.Errorf("Load %s: summary %q, want %q", browsePath(i), sum, browseSummaries[i])
	}
	return nil
}

// The author_mix shape (benchmark/workloads.go) for one client: an
// authoring cycle of ten requests — MKCOL, PUT deck, PROPPATCH, PUT
// output, PROPPATCH, PROPFIND Depth 1, GET deck, COPY, DELETE, DELETE —
// that leaves the tree as it found it. The deck (4 KiB), the output
// (64 KiB) and the five collection properties (one a 1 KiB annotation)
// are sized as in the benchmark.
const authorNS = "bench:"

var (
	authorDeck, authorOutput []byte
	authorNote               string // 1 KiB
	authorTurn               int
)

func populateAuthor(c *davclient.Client) error {
	rng := rand.New(rand.NewSource(1))
	authorDeck, authorOutput = make([]byte, 4<<10), make([]byte, 64<<10)
	rng.Read(authorDeck)
	rng.Read(authorOutput)
	authorNote = strings.Repeat("uranyl hydration shell, first solvation sphere; ", 22)[:1024]
	return c.Mkcol("/author")
}

func authorOp(c *davclient.Client) error {
	authorTurn++
	return authorCycle(c, fmt.Sprintf("/author/w%06d", authorTurn))
}

// authorCycle runs one authoring cycle in dir, which must not exist;
// populateAuthor has made the bodies.
func authorCycle(c *davclient.Client, dir string) error {
	put := func(p string, body []byte) error {
		_, err := c.Put(p, bytes.NewReader(body), "text/plain")
		return err
	}
	for _, step := range []func() error{
		func() error { return c.Mkcol(dir) },
		func() error { return put(dir+"/input.nw", authorDeck) },
		func() error {
			return c.SetProps(dir,
				davproto.NewTextProperty(authorNS, "theory", "DFT"),
				davproto.NewTextProperty(authorNS, "basis", "STO-3G"),
				davproto.NewTextProperty(authorNS, "formula", "H30O17U"),
				davproto.NewTextProperty(authorNS, "state", "created"),
				davproto.NewTextProperty(authorNS, "annotation", authorNote))
		},
		func() error { return put(dir+"/output.out", authorOutput) },
		func() error { return c.SetProps(dir, davproto.NewTextProperty(authorNS, "state", "complete")) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	ms, err := c.PropFindAll(dir, davproto.Depth1)
	if err != nil {
		return err
	}
	if len(ms.Responses) != 3 {
		return fmt.Errorf("PROPFIND %s: %d responses, want 3", dir, len(ms.Responses))
	}
	h := crc32.NewIEEE()
	if n, err := c.GetTo(dir+"/input.nw", h); err != nil || n != int64(len(authorDeck)) || h.Sum32() != crc32.ChecksumIEEE(authorDeck) {
		return fmt.Errorf("GET %s/input.nw: %d bytes, %v", dir, n, err)
	}
	return errors.Join(c.Copy(dir, dir+"-copy", davproto.DepthInfinity, false), c.Delete(dir), c.Delete(dir+"-copy"))
}

// The propfind_sweep shape (benchmark/workloads.go): a Depth-1 PROPFIND
// of 5 of 50 properties on a collection of 50 documents, every one of
// the 51 resources carrying all 50 properties, each 1 KiB of
// alphanumerics.
const (
	sweepDocs, sweepProps, sweepValueLen = 50, 50, 1024
	sweepNS                              = "bench:"
)

var sweepPicked = []int{3, 11, 17, 29, 42}

func sweepValue(resource, prop int) string {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	k := (resource*sweepProps + prop) % len(alnum)
	return strings.Repeat(alnum[k:]+alnum[:k], sweepValueLen/len(alnum)+1)[:sweepValueLen]
}

func populateSweep(c *davclient.Client) error {
	if err := c.Mkcol("/data"); err != nil {
		return err
	}
	for r := 0; r <= sweepDocs; r++ {
		href := "/data"
		if r > 0 {
			href = fmt.Sprintf("/data/doc%02d.dat", r-1)
			if _, err := c.PutBytes(href, []byte(strings.Repeat("b", 256)), "application/octet-stream"); err != nil {
				return err
			}
		}
		props := make([]davproto.Property, sweepProps)
		for p := range props {
			props[p] = davproto.NewTextProperty(sweepNS, fmt.Sprintf("p%02d", p), sweepValue(r, p))
		}
		if err := c.SetProps(href, props...); err != nil {
			return err
		}
	}
	return nil
}

func sweepOp(c *davclient.Client) error {
	names := make([]xml.Name, len(sweepPicked))
	for i, p := range sweepPicked {
		names[i] = xml.Name{Space: sweepNS, Local: fmt.Sprintf("p%02d", p)}
	}
	ms, err := c.PropFindSelected("/data", davproto.Depth1, names...)
	if err != nil {
		return err
	}
	if len(ms.Responses) != sweepDocs+1 {
		return fmt.Errorf("%d responses, want %d", len(ms.Responses), sweepDocs+1)
	}
	for _, r := range ms.Responses {
		if got := davproto.PropsByName(r.Propstats); len(got) != len(sweepPicked) {
			return fmt.Errorf("%s: %d properties found, want %d", r.Href, len(got), len(sweepPicked))
		}
	}
	return nil
}

// The tagged-document SEARCH (BenchmarkAblation_SearchVsWalk): the
// propfind_sweep collection with 5 of its 50 documents tagged, searched
// at Depth infinity for the tag.
var taggedName = xml.Name{Space: sweepNS, Local: "tagged"}

func populateTagged(c *davclient.Client) error {
	if err := populateSweep(c); err != nil {
		return err
	}
	for d := 0; d < sweepDocs; d += 10 {
		if err := c.SetProps(fmt.Sprintf("/data/doc%02d.dat", d),
			davproto.NewTextProperty(taggedName.Space, taggedName.Local, "yes")); err != nil {
			return err
		}
	}
	return nil
}

func taggedOp(c *davclient.Client) error {
	ms, err := c.Search(davproto.BasicSearch{
		Select: []xml.Name{taggedName}, Scope: "/data", Depth: davproto.DepthInfinity,
		Where: davproto.IsDefinedExpr{Prop: taggedName},
	})
	if err != nil {
		return err
	}
	if len(ms.Responses) != sweepDocs/10 {
		return fmt.Errorf("%d hits, want %d", len(ms.Responses), sweepDocs/10)
	}
	return nil
}

// viewRecorder notes the identity of every property map the batched
// reads return.
type viewRecorder struct {
	store.Store
	mu   sync.Mutex
	maps []uintptr
}

func (v *viewRecorder) note(m map[xml.Name][]byte) {
	v.mu.Lock()
	v.maps = append(v.maps, reflect.ValueOf(m).Pointer())
	v.mu.Unlock()
}

func (v *viewRecorder) StatWithProps(ctx context.Context, p string) (store.ResourceInfo, map[xml.Name][]byte, error) {
	ri, props, err := v.Store.StatWithProps(ctx, p)
	v.note(props)
	return ri, props, err
}

func (v *viewRecorder) ListWithProps(ctx context.Context, p string) ([]store.MemberProps, error) {
	members, err := v.Store.ListWithProps(ctx, p)
	for _, m := range members {
		v.note(m.Props)
	}
	return members, err
}

// take returns the maps noted since the last take.
func (v *viewRecorder) take() []uintptr {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.maps
	v.maps = nil
	return out
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}

func TestCountLedger(t *testing.T) {
	for _, row := range ledger {
		t.Run(row.name, func(t *testing.T) {
			fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
			if err != nil {
				t.Fatal(err)
			}
			views := &viewRecorder{Store: fs}
			var storeCalls, bodyBytes atomic.Int64
			cfg := DefaultConfig()
			cfg.NoAccessLog = true
			// Only the requests' own calls count. A request slower than
			// SlowThreshold (a loaded disk) triggers an incident bundle,
			// whose status document probes the store with Health.Ready's
			// Stat("/") from a context of its own; that probe can land
			// inside the counted operation, but it is not one of its calls.
			cfg.Store = store.Intercept(views, func(ctx context.Context, _ store.Op, next func(context.Context) error) error {
				if ctx.Value(http.ServerContextKey) != nil {
					storeCalls.Add(1)
				}
				return next(ctx)
			})
			srv, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dav := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				srv.Handler.ServeHTTP(countingWriter{w, &bodyBytes}, r)
			}))
			t.Cleanup(func() {
				dav.Close()
				srv.Close()
			})
			c, err := davclient.New(davclient.Config{BaseURL: dav.URL, Persistent: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := row.populate(c); err != nil {
				t.Fatalf("populate: %v", err)
			}

			// One operation, counted.
			views.take()
			requests, calls, body := c.RequestCount(), storeCalls.Load(), bodyBytes.Load()
			if err := row.op(c); err != nil {
				t.Fatal(err)
			}
			first := views.take()
			if got := c.RequestCount() - requests; got != row.requests {
				t.Errorf("requests per operation = %d, want %d", got, row.requests)
			}
			if got := storeCalls.Load() - calls; got != row.storeCalls {
				t.Errorf("store calls per operation = %d, want %d", got, row.storeCalls)
			}
			if got := bodyBytes.Load() - body; got != row.responseBytes {
				t.Errorf("response bytes per operation = %d, want %d", got, row.responseBytes)
			}

			// The same operation again, over the same data.
			if err := row.op(c); err != nil {
				t.Fatal(err)
			}
			if again := views.take(); row.viewsReused && (len(first) == 0 || !reflect.DeepEqual(again, first)) {
				t.Errorf("a repeated operation was not handed the first one's %d property maps (got %d maps, not all the same)", len(first), len(again))
			}

			// AllocsPerRun counts every goroutine's allocations. An
			// incident bundle an earlier test's server started (a panic or
			// slow trip, a degraded SLO) outlives that server's Close and
			// assembles ≈8,600 allocations after its 1 s CPU slice; under a
			// loaded full-suite run it can land inside one window. The
			// least of three rounds is the operation's own count.
			var opErr error
			allocs := math.Inf(1)
			for range 3 {
				allocs = min(allocs, testing.AllocsPerRun(20, func() {
					if err := row.op(c); err != nil {
						opErr = err
					}
				}))
			}
			if opErr != nil {
				t.Fatal(opErr)
			}
			if allocs > row.maxAllocs {
				t.Errorf("%.0f allocations per operation, ceiling %.0f", allocs, row.maxAllocs)
			}
			t.Logf("%.0f allocations per operation (ceiling %.0f)", allocs, row.maxAllocs)
		})
	}
}
