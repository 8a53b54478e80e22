package davclient

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/davproto"
)

// fetchInto GETs p through c, keeps the body in bc, and returns the
// ETag it was served under.
func fetchInto(t *testing.T, c *Client, bc *BodyCache, p string) string {
	t.Helper()
	data, etag, err := c.GetETag(p)
	if err != nil {
		t.Fatal(err)
	}
	if etag == "" {
		t.Fatalf("GET %s carried no ETag", p)
	}
	bc.Put(p, etag, data)
	return etag
}

// checkBooks fails t unless bc's map, list and byte count agree and
// stay within its bound.
func checkBooks(t *testing.T, bc *BodyCache) {
	t.Helper()
	sum := 0
	for p, el := range bc.byPath {
		kb := el.Value.(*keptBody)
		if kb.path != p {
			t.Errorf("%s maps to the body of %s", p, kb.path)
		}
		sum += len(kb.data)
	}
	if sum != bc.size || bc.size > bc.max || len(bc.byPath) != bc.lru.Len() {
		t.Errorf("%d bodies in the map, %d in the list, %d bytes counted, %d held, bound %d",
			len(bc.byPath), bc.lru.Len(), bc.size, sum, bc.max)
	}
}

// TestCacheInvalidationOnLocalWrites: a body kept under its ETag
// answers only that ETag; after a local overwrite and Drop of its path
// it answers nothing, and the next GET brings the new body under a new
// ETag. Drop of a path spares a sibling that merely shares its prefix.
func TestCacheInvalidationOnLocalWrites(t *testing.T) {
	c := newPair(t, Config{Persistent: true})
	bc := NewBodyCache(1 << 20)
	c.PutBytes("/w", []byte("v1"), "")
	c.PutBytes("/w2", []byte("sibling"), "")
	e1 := fetchInto(t, c, bc, "/w")
	fetchInto(t, c, bc, "/w2")
	if b, ok := bc.Get("/w", e1); !ok || string(b) != "v1" {
		t.Fatalf("Get(/w, %s) = (%q, %v)", e1, b, ok)
	}
	if _, ok := bc.Get("/w", `"other"`); ok {
		t.Fatal("a kept body answered another ETag")
	}

	if _, err := c.PutBytes("/w", []byte("v2"), ""); err != nil {
		t.Fatal(err)
	}
	bc.Drop("/w")
	if _, ok := bc.Get("/w", e1); ok {
		t.Fatal("the overwritten body outlived Drop")
	}
	if bc.Len() != 1 {
		t.Fatalf("%d bodies kept after Drop(/w), want /w2 alone", bc.Len())
	}
	e2 := fetchInto(t, c, bc, "/w")
	if e2 == e1 {
		t.Fatalf("overwrite kept the ETag %s", e1)
	}
	if b, ok := bc.Get("/w", e2); !ok || string(b) != "v2" {
		t.Fatalf("Get after local write = (%q, %v)", b, ok)
	}
	checkBooks(t, bc)
}

// TestCacheDeleteInvalidatesSubtree: Drop of a deleted collection
// forgets every body under it and none beside it.
func TestCacheDeleteInvalidatesSubtree(t *testing.T) {
	c := newPair(t, Config{Persistent: true})
	bc := NewBodyCache(1 << 20)
	c.Mkcol("/tree")
	c.Mkcol("/tree/sub")
	c.PutBytes("/tree/a", []byte("a"), "")
	c.PutBytes("/tree/sub/b", []byte("b"), "")
	c.PutBytes("/treehouse", []byte("next door"), "")
	fetchInto(t, c, bc, "/tree/a")
	fetchInto(t, c, bc, "/tree/sub/b")
	house := fetchInto(t, c, bc, "/treehouse")
	if bc.Len() != 3 {
		t.Fatalf("%d bodies kept, want 3", bc.Len())
	}
	if err := c.Delete("/tree"); err != nil {
		t.Fatal(err)
	}
	bc.Drop("/tree/")
	if bc.Len() != 1 || bc.Size() != len("next door") {
		t.Fatalf("after Drop(/tree/): %d bodies of %d bytes kept, want /treehouse alone", bc.Len(), bc.Size())
	}
	if _, ok := bc.Get("/treehouse", house); !ok {
		t.Fatal("a sibling of the deleted collection was dropped")
	}
	checkBooks(t, bc)
}

// TestCacheMoveAndCopyInvalidate: after a COPY onto a kept document and
// Drop of the destination, the destination answers nothing and the
// source still answers; after a MOVE and Drop of both ends, neither
// answers, and GETs bring the copied payload.
func TestCacheMoveAndCopyInvalidate(t *testing.T) {
	c := newPair(t, Config{Persistent: true})
	bc := NewBodyCache(1 << 20)
	c.PutBytes("/src", []byte("payload"), "")
	c.PutBytes("/dst", []byte("old dst"), "")
	src := fetchInto(t, c, bc, "/src")
	dst := fetchInto(t, c, bc, "/dst")
	if err := c.Copy("/src", "/dst", davproto.DepthInfinity, true); err != nil {
		t.Fatal(err)
	}
	bc.Drop("/dst")
	if _, ok := bc.Get("/dst", dst); ok {
		t.Fatal("the copy's destination outlived Drop")
	}
	if b, ok := bc.Get("/src", src); !ok || string(b) != "payload" {
		t.Fatalf("source after copy = (%q, %v)", b, ok)
	}
	dst = fetchInto(t, c, bc, "/dst")
	if b, _ := bc.Get("/dst", dst); string(b) != "payload" {
		t.Fatalf("dst after copy = %q", b)
	}

	if err := c.Move("/dst", "/moved", false); err != nil {
		t.Fatal(err)
	}
	bc.Drop("/dst")
	bc.Drop("/moved")
	if _, ok := bc.Get("/dst", dst); ok {
		t.Fatal("the move's source outlived Drop")
	}
	moved := fetchInto(t, c, bc, "/moved")
	if b, _ := bc.Get("/moved", moved); string(b) != "payload" {
		t.Fatalf("moved = %q", b)
	}
	if bc.Len() != 2 {
		t.Fatalf("%d bodies kept, want /src and /moved", bc.Len())
	}
	checkBooks(t, bc)
}

// TestCacheLRUEviction: bodies never sum past the bound; the least
// recently used, by keeping or by a Get, go first.
func TestCacheLRUEviction(t *testing.T) {
	c := newPair(t, Config{Persistent: true})
	bc := NewBodyCache(3000)
	etags := map[string]string{}
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/d%d", i)
		c.PutBytes(p, bytes.Repeat([]byte{byte('a' + i)}, 1000), "")
		etags[p] = fetchInto(t, c, bc, p)
		checkBooks(t, bc)
	}
	if bc.Size() != 3000 || bc.Len() != 3 {
		t.Fatalf("%d bodies of %d bytes kept, want 3 of 3000", bc.Len(), bc.Size())
	}
	if _, ok := bc.Get("/d0", etags["/d0"]); ok {
		t.Fatal("the oldest body outlived the bound")
	}
	// A Get makes /d2 the most recently used, so /d3 goes next.
	if b, ok := bc.Get("/d2", etags["/d2"]); !ok || b[0] != 'c' {
		t.Fatalf("Get(/d2) = (%d bytes, %v)", len(b), ok)
	}
	bc.Put("/d5", `"d5"`, make([]byte, 1000))
	for p, want := range map[string]bool{"/d2": true, "/d3": false, "/d4": true, "/d5": true} {
		etag := etags[p]
		if p == "/d5" {
			etag = `"d5"`
		}
		if _, ok := bc.Get(p, etag); ok != want {
			t.Errorf("%s kept = %v, want %v", p, ok, want)
		}
	}
	checkBooks(t, bc)
}

// TestCacheOversizeBodiesBypass: a body larger than the bound, or one
// without a strong ETag, is not kept, and replaces any body kept for
// its path.
func TestCacheOversizeBodiesBypass(t *testing.T) {
	bc := NewBodyCache(100)
	bc.Put("/big", `"small"`, []byte("small"))
	bc.Put("/big", `"big"`, bytes.Repeat([]byte{'x'}, 1000))
	if bc.Len() != 0 || bc.Size() != 0 {
		t.Fatalf("after an oversize body: %d bodies of %d bytes kept", bc.Len(), bc.Size())
	}
	for _, etag := range []string{"", `W/"weak"`} {
		bc.Put("/doc", etag, []byte("body"))
		if _, ok := bc.Get("/doc", etag); ok || bc.Len() != 0 {
			t.Errorf("a body under ETag %q was kept", etag)
		}
	}
	bc.Put("/doc", `"strong"`, []byte("body"))
	if b, ok := bc.Get("/doc", `"strong"`); !ok || string(b) != "body" {
		t.Fatalf("Get under a strong ETag = (%q, %v)", b, ok)
	}
	checkBooks(t, bc)
}
