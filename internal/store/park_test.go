package store

import (
	"context"
	"encoding/xml"
	"fmt"
	"os"
	"testing"

	"repro/internal/dbm"
)

// openFDs counts this process's open file descriptors, or returns -1
// where /proc/self/fd cannot be read.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// A listing over eight times as many property databases as the handle
// cache holds files for is served from the parked images: once every
// database has been read, a Depth-1 listing and a walk open none of
// them again, and at no point do more than the cache's capacity of
// their files stay open.
func TestListingOverParkedDatabasesOpensNothing(t *testing.T) {
	const capacity, docs = 8, 64
	ctx := context.Background()
	s, err := NewFSStoreWith(t.TempDir(), dbm.GDBM, FSOptions{HandleCacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fds0 := openFDs()
	bound := func(after string) {
		t.Helper()
		if st := s.CacheStats(); st.Open > capacity || st.Pinned != 0 {
			t.Fatalf("after %s: %d property-database files open (capacity %d), %d pinned", after, st.Open, capacity, st.Pinned)
		}
		if n := openFDs(); fds0 >= 0 && n > fds0+capacity {
			t.Fatalf("after %s: %d file descriptors open, %d before any database was", after, n, fds0)
		}
	}
	mustMkcol(t, s, "/calc")
	name := xml.Name{Space: "urn:ecce", Local: "state"}
	for i := 0; i < docs; i++ {
		p := fmt.Sprintf("/calc/d%02d.out", i)
		mustPut(t, s, p, "output")
		if err := s.PropPut(ctx, p, name, []byte(fmt.Sprintf("<state>%d</state>", i))); err != nil {
			t.Fatal(err)
		}
		bound("PropPut " + p)
	}
	list := func() {
		t.Helper()
		members, err := s.ListWithProps(ctx, "/calc")
		if err != nil {
			t.Fatal(err)
		}
		if len(members) != docs {
			t.Fatalf("ListWithProps: %d members, want %d", len(members), docs)
		}
		for _, m := range members {
			if len(m.Props[name]) == 0 {
				t.Fatalf("%s listed without its dead property", m.Info.Path)
			}
		}
		bound("ListWithProps")
	}
	list()
	before := s.CacheStats()
	list()
	info, props, err := s.StatWithProps(ctx, "/calc")
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	if err := WalkWithProps(ctx, s, MemberProps{Info: info, Props: props}, func(MemberProps) error {
		visited++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visited != docs+1 {
		t.Fatalf("WalkWithProps visited %d resources, want %d", visited, docs+1)
	}
	bound("WalkWithProps")
	after := s.CacheStats()
	if after.Misses != before.Misses || after.Evictions != 0 {
		t.Fatalf("a second listing and a walk: misses %d -> %d, %d evictions; want no new miss and none", before.Misses, after.Misses, after.Evictions)
	}
}
