package davserver

import (
	"context"
	"encoding/xml"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
)

// newFaultyServer boots a handler over a chaos-wrapped store —
// storage-layer failure injection for the server's error and rollback
// paths.
func newFaultyServer(t *testing.T) (*httptest.Server, *chaos.FaultyStore) {
	t.Helper()
	fs := chaos.NewFaultyStore(store.NewMemStore())
	srv := httptest.NewServer(NewHandler(fs, nil))
	t.Cleanup(srv.Close)
	return srv, fs
}

func TestProppatchRollbackOnStorageFailure(t *testing.T) {
	srv, fs := newFaultyServer(t)
	do(t, "PUT", srv.URL+"/doc", nil, "x")
	// Seed an existing property so rollback has something to restore.
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc", nil,
		proppatchBody(map[string]string{"keep": "original"})), 207)

	// Now arrange for the SECOND PropPut of the batch to fail: the
	// batch sets "keep" (overwriting) then "fresh" (new). The
	// rollback's own restoring PropPut (the third call) must pass.
	fs.FailNth(chaos.OpPropPut, 2)
	ops := []davproto.PatchOp{
		{Prop: davproto.NewTextProperty("ecce:", "keep", "overwritten")},
		{Prop: davproto.NewTextProperty("ecce:", "fresh", "value")},
	}
	resp := do(t, "PROPPATCH", srv.URL+"/doc", nil, string(davproto.MarshalProppatch(ops)))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	statuses := map[string]int{}
	for _, ps := range ms.Responses[0].Propstats {
		for _, p := range ps.Props {
			statuses[p.Name().Local] = ps.Status
		}
	}
	if statuses["fresh"] != 500 {
		t.Fatalf("failed prop status = %d, want 500", statuses["fresh"])
	}
	if statuses["keep"] != 424 {
		t.Fatalf("sibling prop status = %d, want 424", statuses["keep"])
	}

	// Rollback restored the original value of "keep".
	fs.Clear(chaos.OpPropPut)
	resp = do(t, "PROPFIND", srv.URL+"/doc", map[string]string{"Depth": "0"},
		propfindBody("keep", "fresh"))
	ms = parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	keep, ok := props[xml.Name{Space: "ecce:", Local: "keep"}]
	if !ok || keep.Text() != "original" {
		t.Fatalf("keep after rollback = %+v ok=%v, want original", keep, ok)
	}
	if _, ok := props[xml.Name{Space: "ecce:", Local: "fresh"}]; ok {
		t.Fatal("fresh should not exist after rollback")
	}
}

func TestProppatchSnapshotFailure(t *testing.T) {
	// The PROPPATCH's one read of the resource is its undo snapshot;
	// when that read fails, the request fails and nothing is applied.
	srv, fs := newFaultyServer(t)
	do(t, "PUT", srv.URL+"/doc", nil, "x")
	fs.FailAll(chaos.OpStatWithProps)
	resp := do(t, "PROPPATCH", srv.URL+"/doc", nil,
		proppatchBody(map[string]string{"p": "v"}))
	wantStatus(t, resp, 500)
	fs.Clear(chaos.OpStatWithProps)
	resp = do(t, "PROPFIND", srv.URL+"/doc", map[string]string{"Depth": "0"}, propfindBody("p"))
	ms := parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 404 {
		t.Fatal("property applied despite snapshot failure")
	}
}

func TestSearchSurvivesUndecodableProperty(t *testing.T) {
	// A corrupt stored property must not break SEARCH; the resource is
	// simply invisible for that name.
	srv, fs := newFaultyServer(t)
	do(t, "PUT", srv.URL+"/doc", nil, "x")
	// Write garbage directly into the store, bypassing the protocol.
	name := xml.Name{Space: "ecce:", Local: "broken"}
	if err := fs.Store.PropPut(context.Background(), "/doc", name, []byte("not xml at all <<<")); err != nil {
		t.Fatal(err)
	}
	bs := davproto.BasicSearch{
		Scope: "/", Depth: davproto.DepthInfinity,
		Where: davproto.IsDefinedExpr{Prop: name},
	}
	resp := do(t, "SEARCH", srv.URL+"/", nil, string(davproto.MarshalSearch(bs)))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	if len(ms.Responses) != 0 {
		t.Fatalf("corrupt property matched: %+v", ms.Responses)
	}
}

func TestPropfindSkipsUndecodableInAllprop(t *testing.T) {
	srv, fs := newFaultyServer(t)
	do(t, "PUT", srv.URL+"/doc", nil, "x")
	fs.Store.PropPut(context.Background(), "/doc", xml.Name{Space: "e:", Local: "bad"}, []byte("<unclosed"))
	fs.Store.PropPut(context.Background(), "/doc", xml.Name{Space: "e:", Local: "good"},
		davproto.NewTextProperty("e:", "good", "v").Encode())
	resp := do(t, "PROPFIND", srv.URL+"/doc", map[string]string{"Depth": "0"}, "")
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	if _, ok := props[xml.Name{Space: "e:", Local: "good"}]; !ok {
		t.Fatal("good property lost")
	}
	if _, ok := props[xml.Name{Space: "e:", Local: "bad"}]; ok {
		t.Fatal("undecodable property leaked into allprop")
	}
}

func proppatchBodyPairs(pairs ...[2]string) string {
	var ops []davproto.PatchOp
	for _, kv := range pairs {
		ops = append(ops, davproto.PatchOp{Prop: davproto.NewTextProperty("ecce:", kv[0], kv[1])})
	}
	return string(davproto.MarshalProppatch(ops))
}

func TestFaultInjectionHelperSanity(t *testing.T) {
	// The wrapper passes through when no fault is armed.
	srv, _ := newFaultyServer(t)
	do(t, "PUT", srv.URL+"/ok", nil, "x")
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/ok", nil,
		proppatchBodyPairs([2]string{"a", "1"}, [2]string{"b", "2"})), 207)
	resp := do(t, "PROPFIND", srv.URL+"/ok", map[string]string{"Depth": "0"}, propfindBody("a", "b"))
	ms := parseMS(t, resp)
	if got := len(davproto.PropsByName(ms.Responses[0].Propstats)); got != 2 {
		t.Fatalf("props = %d, want 2", got)
	}
}

// TestChaosWrappedStoreTakesProductionPaths: a handler over a
// chaos-wrapped FSStore reaches the store through the same batched,
// atomic and rename operations davd's does — one each per request — and
// those operations can be faulted like any other.
func TestChaosWrappedStoreTakesProductionPaths(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var mu sync.Mutex
	ops := map[string]int{} // what reaches the FSStore underneath the chaos wrapper
	faulty := chaos.NewFaultyStore(store.Intercept(fs,
		func(ctx context.Context, op store.Op, next func(context.Context) error) error {
			mu.Lock()
			ops[op.Name]++
			mu.Unlock()
			return next(ctx)
		}))
	srv := httptest.NewServer(NewHandler(faulty, nil))
	defer srv.Close()
	// request runs one request and returns the store operations it cost.
	request := func(method, path, dest string, status int) (map[string]int, string) {
		t.Helper()
		mu.Lock()
		clear(ops)
		mu.Unlock()
		headers := map[string]string{"Depth": "infinity", "Destination": dest}
		if method == "PROPFIND" {
			headers = map[string]string{"Depth": "1"}
		}
		resp := do(t, method, srv.URL+path, headers, "")
		wantStatus(t, resp, status)
		body, _ := io.ReadAll(resp.Body)
		mu.Lock()
		defer mu.Unlock()
		cost := map[string]int{}
		for op, n := range ops {
			cost[op] = n
		}
		return cost, string(body)
	}

	wantStatus(t, do(t, "MKCOL", srv.URL+"/proj", nil, ""), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/a", nil, "a"), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/b", nil, "b"), 201)

	for _, tc := range []struct {
		op, method, path, dest string
		status                 int
		never                  []string // the per-resource ops a hidden capability would degrade to
	}{
		{chaos.OpListWithProps, "PROPFIND", "/proj", "", 207, []string{store.OpStat}},
		{chaos.OpCopyTree, "COPY", "/proj", "/copy", 201, []string{store.OpMkcol, store.OpPut, store.OpGet}},
		{chaos.OpRename, "MOVE", "/copy", "/moved", 201, []string{store.OpCopyTree, store.OpDelete}},
	} {
		cost, _ := request(tc.method, tc.path, tc.dest, tc.status)
		if cost[tc.op] != 1 {
			t.Errorf("%s cost %d %s operations, want 1 (all: %v)", tc.method, cost[tc.op], tc.op, cost)
		}
		for _, op := range tc.never {
			if cost[op] != 0 {
				t.Errorf("%s degraded to %d %s operations (all: %v)", tc.method, cost[op], op, cost)
			}
		}
	}

	// Armed, a batched read's or an atomic copy's failure is the
	// request's failure...
	faulty.FailNth(chaos.OpListWithProps, 1)
	if _, body := request("PROPFIND", "/proj", "", 500); !strings.Contains(body, chaos.ErrInjected.Error()) {
		t.Errorf("PROPFIND over a failing list_with_props answered %q", body)
	}
	faulty.FailNth(chaos.OpCopyTree, 1)
	if _, body := request("COPY", "/proj", "/copy2", 500); !strings.Contains(body, chaos.ErrInjected.Error()) {
		t.Errorf("COPY over a failing copy_tree answered %q", body)
	}
	// ...and so is a rename's: MOVE falls back on nothing.
	faulty.FailNth(chaos.OpRename, 1)
	cost, body := request("MOVE", "/moved", "/moved2", 500)
	if !strings.Contains(body, chaos.ErrInjected.Error()) || cost[store.OpCopyTree] != 0 || cost[store.OpDelete] != 0 {
		t.Errorf("MOVE over a failing rename answered %q at cost %v; want the injected error, no copy_tree and no delete",
			body, cost)
	}
	wantStatus(t, do(t, "GET", srv.URL+"/moved/a", nil, ""), 200)
	wantStatus(t, do(t, "GET", srv.URL+"/moved2/a", nil, ""), 404)
}
