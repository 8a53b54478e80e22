package davserver

import (
	"context"
	"encoding/xml"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
)

// The count ledger: for each of the benchmark's workload shapes, small
// enough for tier-1, the per-operation counts that do not depend on the
// machine's speed, pinned over a davd assembled by Build and driven by
// davclient. A change that moves one of them edits its row here, in the
// same diff, so the diff states the claim.
//
// calc_browse and author_mix each arrive with the change that works on
// them.
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
		// 3,370 measured on linux/amd64 with go1.24 (3,431 under -race;
		// 6,640 when each request decoded all 51 databases again). The
		// ceiling leaves 12 % for net/http and runtime variation.
		maxAllocs:   3_780,
		viewsReused: true,
	},
	{
		name:     "doc_transfer",
		populate: populateTransfer,
		op:       transferOp,
		requests: 2,
		// PUT: the handler's Stat, Put, and the auto-versioning PropGet
		// an overwrite makes; GET: Get.
		storeCalls:    4,
		responseBytes: transferSize,
		// 610 measured on linux/amd64 with go1.24 (633 under -race; 612
		// when PUT staging and GetTo each allocated a 32 KiB copy buffer
		// per operation). The ceiling leaves 15 %.
		maxAllocs: 700,
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
			cfg.SampleInterval, cfg.ProfInterval = 0, 0
			cfg.NoAccessLog = true
			cfg.Store = store.Intercept(views, func(ctx context.Context, _ store.Op, next func(context.Context) error) error {
				storeCalls.Add(1)
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

			var opErr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := row.op(c); err != nil {
					opErr = err
				}
			})
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
