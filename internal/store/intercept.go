package store

import (
	"context"
	"encoding/xml"
	"io"
)

// Operation names, one per Store method. They are Op.Name, the suffix of
// the "store.<op>" trace spans, the op label of the dav_store_op_*
// metric families, and the keys chaos.FaultyStore arms faults on.
const (
	OpStat          = "stat"
	OpMkcol         = "mkcol"
	OpPut           = "put"
	OpGet           = "get"
	OpDelete        = "delete"
	OpPropPut       = "prop_put"
	OpPropDelete    = "prop_delete"
	OpStatWithProps = "stat_with_props"
	OpListWithProps = "list_with_props"
	OpCopyTree      = "copy_tree"
	OpRename        = "rename"
	OpClose         = "close"
)

// Op describes one Store call to an Interceptor.
type Op struct {
	Name string // one of the Op* constants
	Path string // the resource; the source of a copy_tree or rename
	Dst  string // the destination of a copy_tree or rename, else ""
	// Bytes is the size of the value a prop_put stores; zero for every
	// other operation (a put's body is a stream of unknown length).
	Bytes int
}

// An Interceptor runs around every call on an intercepted store. It
// decides whether, when and under which context the call proceeds:
// calling next runs it on the wrapped store with the context given, and
// returning without calling next fails it with the returned error. An
// interceptor that calls next returns next's error. Close is not
// request-scoped; it arrives with context.Background().
type Interceptor func(ctx context.Context, op Op, next func(context.Context) error) error

// Intercept wraps s so ic runs around every operation. It is the one
// place outside the stores themselves that spells out the Store method
// set: timing, deadlines, fault injection and any other cross-cutting
// behaviour are interceptors, not wrappers of their own.
func Intercept(s Store, ic Interceptor) Store { return &intercepted{s: s, ic: ic} }

type intercepted struct {
	s  Store
	ic Interceptor
}

func (w *intercepted) Stat(ctx context.Context, p string) (ri ResourceInfo, err error) {
	err = w.ic(ctx, Op{Name: OpStat, Path: p}, func(ctx context.Context) (e error) {
		ri, e = w.s.Stat(ctx, p)
		return
	})
	return
}

func (w *intercepted) Mkcol(ctx context.Context, p string) error {
	return w.ic(ctx, Op{Name: OpMkcol, Path: p}, func(ctx context.Context) error {
		return w.s.Mkcol(ctx, p)
	})
}

func (w *intercepted) Put(ctx context.Context, p string, r io.Reader, contentType string) (created bool, err error) {
	err = w.ic(ctx, Op{Name: OpPut, Path: p}, func(ctx context.Context) (e error) {
		created, e = w.s.Put(ctx, p, r, contentType)
		return
	})
	return
}

// Get's interception covers opening the document, not streaming it: the
// returned reader outlives next, and with both stores it does not
// consult the context after Get returns.
func (w *intercepted) Get(ctx context.Context, p string) (rc io.ReadCloser, ri ResourceInfo, err error) {
	err = w.ic(ctx, Op{Name: OpGet, Path: p}, func(ctx context.Context) (e error) {
		rc, ri, e = w.s.Get(ctx, p)
		return
	})
	return
}

func (w *intercepted) Delete(ctx context.Context, p string) error {
	return w.ic(ctx, Op{Name: OpDelete, Path: p}, func(ctx context.Context) error {
		return w.s.Delete(ctx, p)
	})
}

func (w *intercepted) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	return w.ic(ctx, Op{Name: OpPropPut, Path: p, Bytes: len(value)}, func(ctx context.Context) error {
		return w.s.PropPut(ctx, p, name, value)
	})
}

func (w *intercepted) PropDelete(ctx context.Context, p string, name xml.Name) error {
	return w.ic(ctx, Op{Name: OpPropDelete, Path: p}, func(ctx context.Context) error {
		return w.s.PropDelete(ctx, p, name)
	})
}

func (w *intercepted) StatWithProps(ctx context.Context, p string) (ri ResourceInfo, props map[xml.Name][]byte, err error) {
	err = w.ic(ctx, Op{Name: OpStatWithProps, Path: p}, func(ctx context.Context) (e error) {
		ri, props, e = w.s.StatWithProps(ctx, p)
		return
	})
	return
}

func (w *intercepted) ListWithProps(ctx context.Context, p string) (members []MemberProps, err error) {
	err = w.ic(ctx, Op{Name: OpListWithProps, Path: p}, func(ctx context.Context) (e error) {
		members, e = w.s.ListWithProps(ctx, p)
		return
	})
	return
}

func (w *intercepted) CopyTreeAtomic(ctx context.Context, src, dst string, opts CopyOptions) error {
	return w.ic(ctx, Op{Name: OpCopyTree, Path: src, Dst: dst}, func(ctx context.Context) error {
		return w.s.CopyTreeAtomic(ctx, src, dst, opts)
	})
}

func (w *intercepted) Rename(ctx context.Context, src, dst string) error {
	return w.ic(ctx, Op{Name: OpRename, Path: src, Dst: dst}, func(ctx context.Context) error {
		return w.s.Rename(ctx, src, dst)
	})
}

func (w *intercepted) Close() error {
	return w.ic(context.Background(), Op{Name: OpClose}, func(context.Context) error {
		return w.s.Close()
	})
}
