// Package store defines the resource store behind the WebDAV server: a
// hierarchy of collections and documents, each of which may carry
// arbitrary dead properties.
//
// Two implementations are provided. FSStore reproduces the mod_dav
// layout the paper measured — documents are plain files, collections
// are directories, and each resource that has metadata gets its own
// DBM database file — so the raw data remains directly accessible to
// users, one of the paper's stated goals. MemStore keeps everything in
// memory for tests and micro-benchmarks.
//
// Every operation takes a context.Context as its first parameter, and
// the context means something at every layer: lock waits abort when it
// is done, long DBM scans checkpoint it, and multi-step filesystem
// operations stop between journal steps. A request that is abandoned
// (client disconnect, server deadline) therefore stops consuming the
// store instead of running to completion for nobody.
package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"time"
)

// Errors reported by store implementations.
var (
	ErrNotFound      = errors.New("store: resource not found")
	ErrExists        = errors.New("store: resource already exists")
	ErrNotCollection = errors.New("store: not a collection")
	ErrIsCollection  = errors.New("store: is a collection")
	ErrConflict      = errors.New("store: parent collection does not exist")
	ErrBadPath       = errors.New("store: invalid path")
	// ErrRecovering rejects mutations while crash recovery is still
	// resolving journal intents; the DAV layer maps it to 503 with a
	// Retry-After so clients back off and retry.
	ErrRecovering = errors.New("store: recovering after crash")
)

// ResourceInfo describes one resource.
type ResourceInfo struct {
	Path         string // canonical path, "/"-rooted
	IsCollection bool
	Size         int64
	ModTime      time.Time
	CreateTime   time.Time
	ContentType  string
	ETag         string
}

// Name returns the last path segment (the display name).
func (ri ResourceInfo) Name() string {
	if ri.Path == "/" {
		return "/"
	}
	return path.Base(ri.Path)
}

// Store is the persistence contract the DAV server runs against. All
// paths are canonical per CleanPath. Implementations must be safe for
// concurrent use. It holds what the handlers call and nothing more: a
// resource's dead properties are read with its metadata, in one
// StatWithProps or ListWithProps, never one name at a time.
//
// ctx carries the request scope: trace attribution, cancellation, and
// deadlines. Implementations abort early — without leaving partial
// state visible — when ctx is done; the error then wraps ctx.Err().
//
// Property values returned by StatWithProps and ListWithProps are
// read-only. An FSStore's alias the resident image of the property
// database (see dbm.ForEach): a caller may keep them, which keeps that
// image alive, but must copy before it modifies one. The maps are
// read-only too: an FSStore's is the database's shared property view,
// handed to every caller until the resource's properties next change,
// and a caller must not modify it.
//
// Stat and Get describe a document whose property database cannot be
// read from the document alone (an FSStore infers its content type and
// leaves the generation out of its ETag); StatWithProps and
// ListWithProps fail on it, since properties silently missing would
// read as "this resource has none".
type Store interface {
	// Stat describes the resource at p.
	Stat(ctx context.Context, p string) (ResourceInfo, error)
	// Mkcol creates a collection. The parent must exist (ErrConflict
	// otherwise); the path must be free (ErrExists otherwise).
	Mkcol(ctx context.Context, p string) error
	// Put creates or replaces the document at p with the contents of
	// r, recording contentType if non-empty. It reports whether the
	// document was newly created.
	Put(ctx context.Context, p string, r io.Reader, contentType string) (created bool, err error)
	// Get opens the document at p for reading.
	Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error)
	// Delete removes the resource at p and, if it is a collection, its
	// entire subtree, including all properties.
	Delete(ctx context.Context, p string) error

	// PropPut stores the encoded dead property value under name.
	PropPut(ctx context.Context, p string, name xml.Name, value []byte) error
	// PropDelete removes a dead property; absent properties are not an
	// error (RFC 2518 treats removing a non-existent property as
	// success).
	PropDelete(ctx context.Context, p string, name xml.Name) error

	// The batched reads, the atomic subtree copy and the rename are part
	// of the contract, not optional extras: both stores implement them
	// and the DAV handlers call them directly. The three names remain as
	// method groups.
	BatchReader
	TreeCopier
	Renamer

	// Close releases resources held by the store. Close is not
	// request-scoped and must run to completion; it takes no context.
	Close() error
}

// CleanPath canonicalizes a resource path: forces a leading slash,
// removes trailing slashes (except the root), resolves "." and "..",
// and rejects paths that escape the root or contain NUL bytes.
func CleanPath(p string) (string, error) {
	if strings.ContainsRune(p, 0) {
		return "", fmt.Errorf("%w: NUL in %q", ErrBadPath, p)
	}
	if p == "" {
		p = "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	cp := path.Clean(p)
	if cp != "/" && strings.HasSuffix(cp, "/") {
		cp = strings.TrimRight(cp, "/")
	}
	// path.Clean resolves "..", but a path like "/../x" cleans to
	// "/x"; that is acceptable (cannot escape). Reject any remaining
	// ".." (cannot occur after Clean on a rooted path, but keep the
	// guard for defense in depth).
	for _, seg := range strings.Split(cp, "/") {
		if seg == ".." {
			return "", fmt.Errorf("%w: %q escapes root", ErrBadPath, p)
		}
	}
	return cp, nil
}

// ParentPath returns the parent collection path of p ("/" for
// top-level resources and for the root itself).
func ParentPath(p string) string {
	if p == "/" {
		return "/"
	}
	dir := path.Dir(p)
	if dir == "." {
		return "/"
	}
	return dir
}

// IsAncestor reports whether a is a strict ancestor collection of p.
func IsAncestor(a, p string) bool {
	if a == p {
		return false
	}
	if a == "/" {
		return true
	}
	return strings.HasPrefix(p, a+"/")
}

// propKey encodes a property name as a DBM key. Keys are tagged with a
// leading 'P' to separate them from internal bookkeeping keys; XML
// names cannot contain NUL, so it is an unambiguous separator between
// namespace and local name.
func propKey(name xml.Name) []byte {
	return []byte("P" + name.Space + "\x00" + name.Local)
}

// internalKey names a store-internal DBM entry (content type,
// creation date, ...).
func internalKey(name string) []byte { return []byte("I" + name) }

// parsePropKey reverses propKey; non-property keys yield ok=false.
func parsePropKey(key []byte) (xml.Name, bool) {
	s := string(key)
	if !strings.HasPrefix(s, "P") {
		return xml.Name{}, false
	}
	s = s[1:]
	i := strings.IndexByte(s, 0)
	if i < 0 {
		return xml.Name{}, false
	}
	return xml.Name{Space: s[:i], Local: s[i+1:]}, true
}

// CopyOptions controls CopyTreeAtomic.
type CopyOptions struct {
	// Recurse copies collection members (Depth: infinity). When false
	// only the collection resource itself (and its properties) is
	// copied (Depth: 0).
	Recurse bool
}

// TreeCopier is the COPY part of Store.
type TreeCopier interface {
	// CopyTreeAtomic copies the resource at src to dst, including dead
	// properties, creating dst's resource type to match src. The
	// destination must not already exist (the server resolves Overwrite
	// by deleting first) and must not be src or inside it (ErrBadPath).
	// The whole copy is one operation: a single multi-path lock
	// acquisition (shared on the source subtree, exclusive on the
	// destination) held throughout, so concurrent writers cannot mutate
	// the source mid-copy and no reader observes a partially built
	// destination. Descendant failures abort the copy.
	CopyTreeAtomic(ctx context.Context, src, dst string, opts CopyOptions) error
}

// Renamer is the MOVE part of Store.
type Renamer interface {
	// Rename moves src (and, for a collection, its subtree) to dst with
	// bodies, properties and ETags intact. Neither path may be the root,
	// and neither may equal or contain the other (ErrBadPath); src must
	// exist (ErrNotFound), dst must not (ErrExists), and dst's parent
	// must be a collection (ErrConflict).
	Rename(ctx context.Context, src, dst string) error
}

// sortedPropNames returns props' keys ordered by namespace then local
// name, so property iteration is deterministic.
func sortedPropNames(props map[xml.Name][]byte) []xml.Name {
	names := make([]xml.Name, 0, len(props))
	for n := range props {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Space != names[j].Space {
			return names[i].Space < names[j].Space
		}
		return names[i].Local < names[j].Local
	})
	return names
}

// MemberProps couples one resource's metadata with its dead properties,
// as returned by the batched read path.
type MemberProps struct {
	Info ResourceInfo
	// Props maps property names to their stored encodings; empty (or
	// nil) when the resource carries no dead properties. It may be
	// shared with other readers and must not be modified.
	Props map[xml.Name][]byte
	// Checked reports that every value in Props passed
	// xmldom.WellFormedFragment, so a caller may splice them into a
	// larger document without checking again. False says only that the
	// store gives no verdict: some value is not a fragment, or nothing
	// checked them (StatWithProps's values carry none).
	Checked bool
}

// BatchReader is the batched-read part of Store: resolve a resource (or
// a collection's members) together with all dead properties in one
// locked pass. The PROPFIND handler uses it so a Depth:1 listing over N
// members costs one traversal through cached database handles instead
// of N+1 independent lookups, each reopening its database, and splices
// the values ListWithProps vouches for (Checked) without looking at them
// again. FSStore checks a database's values once per write, when it
// builds the decoded view it keeps in the handle's memo slot; MemStore
// checks them on every call.
type BatchReader interface {
	// StatWithProps is Stat plus every dead property of the resource,
	// under one resource lock; a property database that cannot be read
	// is an error.
	StatWithProps(ctx context.Context, p string) (ResourceInfo, map[xml.Name][]byte, error)
	// ListWithProps returns the members of the collection at p, sorted
	// by path, each with its dead properties, under one collection lock.
	ListWithProps(ctx context.Context, p string) ([]MemberProps, error)
}

// WalkWithProps visits root and, if it is a collection, every
// descendant, pre-order, handing each visit the resource's dead
// properties as well. The caller resolves root (StatWithProps), so a
// handler that has already read it does not read it again. Collections
// are resolved through the batched list path, so a deep walk costs one
// pass per collection rather than one per resource. If fn returns a
// non-nil error the walk stops and returns it; the walk checkpoints ctx
// between collections, so it aborts promptly when the request is
// abandoned.
func WalkWithProps(ctx context.Context, s Store, root MemberProps, fn func(MemberProps) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fn(root); err != nil {
		return err
	}
	if !root.Info.IsCollection {
		return nil
	}
	members, err := s.ListWithProps(ctx, root.Info.Path)
	if err != nil {
		return err
	}
	for _, m := range members {
		if err := WalkWithProps(ctx, s, m, fn); err != nil {
			return err
		}
	}
	return nil
}
