package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestInterceptEveryMethod drives each Store method through Intercept
// twice: once with an interceptor that refuses (the call must fail with
// its error and never reach the wrapped store), once with one that
// proceeds under a context of its own (the wrapped store must see that
// context, and the caller the wrapped store's results).
func TestInterceptEveryMethod(t *testing.T) {
	type ctxKey struct{}
	var (
		errRefused = errors.New("refused")
		refuse     bool
		got        []Op     // what the interceptor under test was told
		below      []string // op names that arrived at the wrapped store
		reached    []string // ... of those, the ones carrying the interceptor's context
	)
	// The wrapped store is itself an intercepted MemStore: its
	// interceptor is the probe for what came through and with which
	// context.
	inner := Intercept(NewMemStore(), func(ctx context.Context, op Op, next func(context.Context) error) error {
		below = append(below, op.Name)
		if ctx.Value(ctxKey{}) == "from-interceptor" {
			reached = append(reached, op.Name)
		}
		return next(ctx)
	})
	s := Intercept(inner, func(ctx context.Context, op Op, next func(context.Context) error) error {
		got = append(got, op)
		if refuse {
			return errRefused
		}
		return next(context.WithValue(ctx, ctxKey{}, "from-interceptor"))
	})

	name := xml.Name{Space: "e:", Local: "k"}
	ctx := context.Background()
	want := func(cond bool, format string, args ...any) error {
		if cond {
			return nil
		}
		return fmt.Errorf(format, args...)
	}
	steps := []struct {
		op   Op
		call func() error // also checks the results on the proceeding pass
	}{
		{Op{Name: OpMkcol, Path: "/col"}, func() error { return s.Mkcol(ctx, "/col") }},
		{Op{Name: OpPut, Path: "/col/a"}, func() error {
			created, err := s.Put(ctx, "/col/a", strings.NewReader("hello"), "text/plain")
			if err != nil {
				return err
			}
			return want(created, "put did not report creation")
		}},
		{Op{Name: OpStat, Path: "/col/a"}, func() error {
			ri, err := s.Stat(ctx, "/col/a")
			if err != nil {
				return err
			}
			return want(ri.Path == "/col/a" && ri.Size == 5, "stat = %+v", ri)
		}},
		{Op{Name: OpGet, Path: "/col/a"}, func() error {
			rc, ri, err := s.Get(ctx, "/col/a")
			if err != nil {
				return err
			}
			defer rc.Close()
			body, _ := io.ReadAll(rc)
			return want(string(body) == "hello" && ri.Size == 5, "get = %q, %+v", body, ri)
		}},
		{Op{Name: OpPropPut, Path: "/col/a", Bytes: 3}, func() error { return s.PropPut(ctx, "/col/a", name, []byte("val")) }},
		{Op{Name: OpStatWithProps, Path: "/col/a"}, func() error {
			ri, props, err := s.StatWithProps(ctx, "/col/a")
			if err != nil {
				return err
			}
			return want(ri.Size == 5 && string(props[name]) == "val", "stat_with_props = %+v, %v", ri, props)
		}},
		{Op{Name: OpListWithProps, Path: "/col"}, func() error {
			members, err := s.ListWithProps(ctx, "/col")
			if err != nil {
				return err
			}
			return want(len(members) == 1 && string(members[0].Props[name]) == "val", "list_with_props = %+v", members)
		}},
		{Op{Name: OpCopyTree, Path: "/col/a", Dst: "/col/b"}, func() error {
			return s.CopyTreeAtomic(ctx, "/col/a", "/col/b", CopyOptions{})
		}},
		{Op{Name: OpRename, Path: "/col/b", Dst: "/col/c"}, func() error { return s.Rename(ctx, "/col/b", "/col/c") }},
		{Op{Name: OpPropDelete, Path: "/col/c"}, func() error { return s.PropDelete(ctx, "/col/c", name) }},
		{Op{Name: OpDelete, Path: "/col/a"}, func() error { return s.Delete(ctx, "/col/a") }},
		{Op{Name: OpClose}, func() error { return s.Close() }},
	}
	for _, st := range steps {
		got, below, reached, refuse = nil, nil, nil, true
		if err := st.call(); !errors.Is(err, errRefused) {
			t.Errorf("%s: refused call returned %v, want the interceptor's error", st.op.Name, err)
		}
		if len(below) != 0 {
			t.Errorf("%s: refused call still reached the wrapped store as %v", st.op.Name, below)
		}

		got, below, reached, refuse = nil, nil, nil, false
		if err := st.call(); err != nil {
			t.Errorf("%s: %v", st.op.Name, err)
		}
		if len(got) != 1 || got[0] != st.op {
			t.Errorf("%s: interceptor saw %+v, want exactly %+v", st.op.Name, got, st.op)
		}
		if len(below) != 1 || below[0] != st.op.Name {
			t.Errorf("%s: wrapped store saw %v, want [%s]", st.op.Name, below, st.op.Name)
		}
		// Close is not request-scoped: it has no caller context to carry.
		if st.op.Name != OpClose && len(reached) != 1 {
			t.Errorf("%s: the interceptor's context did not reach the wrapped store", st.op.Name)
		}
	}
	if n := reflect.TypeOf((*Store)(nil)).Elem().NumMethod(); len(steps) != n {
		t.Fatalf("table covers %d operations; Store has %d methods", len(steps), n)
	}
}
