package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/davserver"
	"repro/internal/store"
)

// TestSerializedStoreParity checks the benchmark baseline behaves like
// a plain store — same data, same properties — while reading the PR 3
// way: a Depth-1 PROPFIND costs one PropAll per member plus one for the
// collection, never a batched read.
func TestSerializedStoreParity(t *testing.T) {
	env, err := StartDAVEnv(DAVEnvOptions{Serialized: true, HandleCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	if created, err := env.Client.PutBytes("/a.txt", []byte("hello"), "text/plain"); err != nil || !created {
		t.Fatalf("put: created=%v err=%v", created, err)
	}
	body, err := env.Client.Get("/a.txt")
	if err != nil || string(body) != "hello" {
		t.Fatalf("get: %q, %v", body, err)
	}
	ms, err := env.Client.PropFindAll("/", 1)
	if err != nil || len(ms.Responses) != 2 {
		t.Fatalf("propfind: %d responses, %v", len(ms.Responses), err)
	}

	// Count what reaches the store underneath the serializing wrapper.
	ops := map[string]int{}
	mem := store.NewMemStore()
	h := davserver.NewHandler(serialize(store.Intercept(mem,
		func(ctx context.Context, op store.Op, next func(context.Context) error) error {
			ops[op.Name]++
			return next(ctx)
		})), nil)
	const members = 3
	for i := 0; i < members; i++ {
		if _, err := mem.Put(context.Background(), fmt.Sprintf("/m%d", i), strings.NewReader("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest("PROPFIND", "/", nil)
	req.Header.Set("Depth", "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 207 {
		t.Fatalf("propfind status %d", rec.Code)
	}
	if ops[store.OpPropAll] != members+1 || ops[store.OpListWithProps] != 0 || ops[store.OpStatWithProps] != 0 {
		t.Fatalf("store ops under a Depth-1 PROPFIND of %d members = %v, want %d prop_all and no batched reads",
			members, ops, members+1)
	}
}

// TestBenchPR4Small runs the concurrency benchmark at tiny sizes and
// round-trips the result through its JSON schema validator, minus the
// timing-sensitive speedup assertion.
func TestBenchPR4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four servers")
	}
	res, err := RunBenchPR4(BenchPR4Options{
		OpsPerWorker:  4,
		Workers:       []int{1, 2},
		SharedMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != BenchPR4Schema {
		t.Fatalf("schema %q", res.Schema)
	}
	if len(res.Archs) != 2 {
		t.Fatalf("archs: %d", len(res.Archs))
	}
	for _, a := range res.Archs {
		if len(a.Cells) != 2 {
			t.Fatalf("%s: %d cells", a.Name, len(a.Cells))
		}
		for _, c := range a.Cells {
			if c.Ops != c.Workers*4 || c.OpsPerSec <= 0 {
				t.Fatalf("%s cell %+v", a.Name, c)
			}
		}
	}
	// The concurrent run must show the new stack actually engaged.
	if res.Concurrency.LockAcquisitions == 0 {
		t.Fatal("no path-lock acquisitions recorded")
	}
	if res.Concurrency.CacheHits == 0 {
		t.Fatal("no handle-cache hits recorded")
	}

	// Everything except the speedup threshold must validate; at these
	// sizes the timing comparison is noise, so only accept that exact
	// complaint.
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchPR4(data); err != nil && res.SpeedupParallel > 1 {
		t.Fatalf("validator rejected a speedup-bearing result: %v", err)
	}
}
