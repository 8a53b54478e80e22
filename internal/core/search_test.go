package core

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/davserver"
	"repro/internal/model"
	"repro/internal/store"
)

func TestFindByMetadataUsesSearch(t *testing.T) {
	s := newDAVStorage(t)
	s.CreateProject("/p", model.Project{Name: "p"})
	for i := 0; i < 5; i++ {
		calcPath := fmt.Sprintf("/p/c%d", i)
		s.CreateCalculation(calcPath, model.Calculation{Name: calcPath})
	}
	// Annotate only some calculations.
	s.Annotate("/p/c1", EcceName("tag"), "keep")
	s.Annotate("/p/c3", EcceName("tag"), "drop")

	reqBefore := s.Client().RequestCount()
	hits, err := s.FindByMetadata("/p", EcceName("tag"), func(v string) bool { return v == "keep" })
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || !strings.HasSuffix(hits[0], "/p/c1") {
		t.Fatalf("hits = %v", hits)
	}
	// One SEARCH request, not a walk.
	if got := s.Client().RequestCount() - reqBefore; got != 1 {
		t.Fatalf("requests = %d, want 1 (server-side search)", got)
	}
}

func TestFindByMetadataFallsBackWithoutSearch(t *testing.T) {
	// A server that rejects SEARCH forces the PROPFIND-walk fallback.
	inner := davserver.NewHandler(store.NewMemStore(), nil)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "SEARCH" {
			http.Error(w, "SEARCH disabled", http.StatusMethodNotAllowed)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewDAVStorage(c)
	t.Cleanup(func() { s.Close() })

	s.CreateProject("/p", model.Project{Name: "p"})
	s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
	s.Annotate("/p/c", EcceName("tag"), "v")

	hits, err := s.FindByMetadata("/p", EcceName("tag"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || !strings.HasSuffix(hits[0], "/p/c") {
		t.Fatalf("fallback hits = %v", hits)
	}
}

func TestFindWhere(t *testing.T) {
	s := newDAVStorage(t)
	s.CreateProject("/p", model.Project{Name: "p"})
	for i, charge := range []string{"0", "2", "3"} {
		calcPath := fmt.Sprintf("/p/c%d", i)
		s.CreateCalculation(calcPath, model.Calculation{Name: calcPath})
		s.Annotate(calcPath, PropCharge, charge)
	}
	hits, err := s.FindWhere("/p", davproto.CompareExpr{
		Op: davproto.OpGte, Prop: PropCharge, Literal: "2"}, PropCharge)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

// TestFindByMetadataUnderPrefix: against a server mounted under a
// prefix, the finders still search server-side. The SEARCH body names
// its scope under the prefix, as the request URL does; a scope the
// server cannot resolve would be a 400, which FindByMetadata takes for
// "no SEARCH support" and silently walks instead. The hits are storage
// paths, without the prefix, that the readers load.
func TestFindByMetadataUnderPrefix(t *testing.T) {
	srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(), &davserver.Options{Prefix: "/dav"}))
	t.Cleanup(srv.Close)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL + "/dav", Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewDAVStorage(c)
	t.Cleanup(func() { s.Close() })
	s.CreateProject("/data", model.Project{Name: "data"})
	for i := 0; i < 3; i++ {
		s.CreateCalculation(fmt.Sprintf("/data/c%d", i), model.Calculation{Name: "c"})
		s.Annotate(fmt.Sprintf("/data/c%d", i), PropCharge, fmt.Sprint(i))
	}
	s.Annotate("/data/c1", EcceName("tag"), "keep")

	reqBefore := c.RequestCount()
	hits, err := s.FindByMetadata("/data", EcceName("tag"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, []string{"/data/c1"}) {
		t.Fatalf("hits = %v, want [/data/c1]", hits)
	}
	if got := c.RequestCount() - reqBefore; got != 1 {
		t.Fatalf("requests = %d, want 1 (server-side search)", got)
	}
	if _, err := s.LoadCalculation(hits[0]); err != nil {
		t.Fatalf("loading the hit: %v", err)
	}
	hits, err = s.FindWhere("/data", davproto.CompareExpr{
		Op: davproto.OpGte, Prop: PropCharge, Literal: "1"}, PropCharge)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, []string{"/data/c1", "/data/c2"}) {
		t.Fatalf("FindWhere hits = %v, want [/data/c1 /data/c2]", hits)
	}
}

// TestFindUnderBrownout: while the server refuses Depth: infinity
// SEARCH and PROPFIND, the finders walk the tree one collection at a
// time and find what they find while it is healthy, with and without a
// path prefix.
func TestFindUnderBrownout(t *testing.T) {
	for _, prefix := range []string{"", "/dav"} {
		var degraded atomic.Bool
		srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(),
			&davserver.Options{Prefix: prefix, Degraded: degraded.Load}))
		t.Cleanup(srv.Close)
		c, err := davclient.New(davclient.Config{BaseURL: srv.URL + prefix, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		s := NewDAVStorage(c)
		t.Cleanup(func() { s.Close() })
		s.CreateProject("/p", model.Project{Name: "p"})
		for i, charge := range []string{"0", "2", "3"} {
			calcPath := fmt.Sprintf("/p/c %d", i)
			s.CreateCalculation(calcPath, model.Calculation{Name: "c"})
			s.SaveRawFile(calcPath, "out", []byte("x"), "text/plain")
			s.Annotate(calcPath+"/out", PropCharge, charge)
		}
		s.Annotate("/p", PropCharge, "5")
		s.Annotate("/p/c 1", PropCharge, "2")
		s.Annotate("/p/c 2", EcceName("tag"), "keep")
		s.Annotate("/p/c 2/out", EcceName("tag"), "keep")

		find := func() (tagged, charged []string) {
			t.Helper()
			if tagged, err = s.FindByMetadata("/p", EcceName("tag"), nil); err != nil {
				t.Fatal(err)
			}
			charged, err = s.FindWhere("/p", davproto.CompareExpr{
				Op: davproto.OpGte, Prop: PropCharge, Literal: "2"}, PropCharge)
			if err != nil {
				t.Fatal(err)
			}
			return tagged, charged
		}
		tagged, charged := find()
		if len(tagged) != 2 || len(charged) != 4 {
			t.Fatalf("prefix %q: healthy finds %v and %v", prefix, tagged, charged)
		}
		degraded.Store(true)
		before := c.RequestCount()
		gotTagged, gotCharged := find()
		if !reflect.DeepEqual(gotTagged, tagged) || !reflect.DeepEqual(gotCharged, charged) {
			t.Errorf("prefix %q: browned out finds %v and %v, want %v and %v",
				prefix, gotTagged, gotCharged, tagged, charged)
		}
		// Each finder: the refused SEARCH, then a Depth: 1 PROPFIND of
		// /p and of each calculation; FindWhere then SEARCHes each.
		if n := c.RequestCount() - before; n != (1+4)+(1+4+4) {
			t.Errorf("prefix %q: browned out finders sent %d requests", prefix, n)
		}
	}
}

// TestQuickSearchMatchesWalk: for random metadata assignments, the
// SEARCH-based finder and a raw PROPFIND walk agree.
func TestQuickSearchMatchesWalk(t *testing.T) {
	s := newDAVStorage(t)
	s.CreateProject("/p", model.Project{Name: "p"})
	const n = 10
	for i := 0; i < n; i++ {
		s.CreateCalculation(fmt.Sprintf("/p/c%d", i), model.Calculation{Name: "c"})
	}
	tag := EcceName("quicktag")
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := map[string]bool{}
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/p/c%d", i)
			if rng.Intn(2) == 0 {
				if err := s.Annotate(p, tag, fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
					return false
				}
				want[p] = true
			} else {
				// Clear any previous value.
				s.Client().RemoveProps(p, tag)
				delete(want, p)
			}
		}
		// SEARCH path.
		hits, err := s.FindByMetadata("/p", tag, nil)
		if err != nil {
			t.Logf("find: %v", err)
			return false
		}
		// Walk path.
		ms, err := s.Client().PropFindSelected("/p", davproto.DepthInfinity, tag)
		if err != nil {
			return false
		}
		walk := s.filterHits(ms, tag, nil)
		if len(hits) != len(walk) || len(hits) != len(want) {
			t.Logf("search=%v walk=%v want=%v", hits, walk, want)
			return false
		}
		for i := range hits {
			if hits[i] != walk[i] || !want[hits[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
