package davclient

import (
	"container/list"
	"strings"
)

// BodyCache keeps document bodies by path, each under the strong ETag
// it was served with, within a byte bound, dropping the least recently
// used first. A kept body answers only a caller that names the same
// ETag, so it is as fresh as the listing the caller took that ETag
// from; a caller that writes through its own client drops what it
// wrote with Drop. It is not safe for concurrent use.
type BodyCache struct {
	max int
	// byPath holds each kept body's element of lru, which holds them
	// most recently used first; size is their sum.
	byPath map[string]*list.Element
	lru    list.List
	size   int
}

// keptBody is a document body and the ETag it was served under.
type keptBody struct {
	path, etag string
	data       []byte
}

// NewBodyCache returns an empty cache that keeps at most maxBytes of
// bodies.
func NewBodyCache(maxBytes int) *BodyCache {
	return &BodyCache{max: maxBytes, byPath: map[string]*list.Element{}}
}

// Get returns the body kept for p if it was served under etag, and
// marks it most recently used.
func (b *BodyCache) Get(p, etag string) ([]byte, bool) {
	el, ok := b.byPath[p]
	if !ok || etag == "" || el.Value.(*keptBody).etag != etag {
		return nil, false
	}
	b.lru.MoveToFront(el)
	return el.Value.(*keptBody).data, true
}

// Put keeps data as the body of p served under etag, in place of any
// body kept for p, dropping the least recently used past the bound. A
// body without a strong ETag, or larger than the bound, is not kept: a
// weak ETag may name other bytes (RFC 9110 §8.8.1).
func (b *BodyCache) Put(p, etag string, data []byte) {
	if el, ok := b.byPath[p]; ok {
		b.remove(el)
	}
	if etag == "" || strings.HasPrefix(etag, "W/") || len(data) > b.max {
		return
	}
	for b.size+len(data) > b.max {
		b.remove(b.lru.Back())
	}
	b.byPath[p] = b.lru.PushFront(&keptBody{path: p, etag: etag, data: data})
	b.size += len(data)
}

// Drop forgets the bodies kept for p and for every path under it.
func (b *BodyCache) Drop(p string) {
	dir := strings.TrimSuffix(p, "/") + "/"
	for q, el := range b.byPath {
		if q == p || strings.HasPrefix(q, dir) {
			b.remove(el)
		}
	}
}

// Len is the number of bodies kept.
func (b *BodyCache) Len() int { return len(b.byPath) }

// Size is the sum of the lengths of the bodies kept.
func (b *BodyCache) Size() int { return b.size }

func (b *BodyCache) remove(el *list.Element) {
	kb := b.lru.Remove(el).(*keptBody)
	delete(b.byPath, kb.path)
	b.size -= len(kb.data)
}
