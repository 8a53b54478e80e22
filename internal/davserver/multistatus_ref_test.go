package davserver

import (
	"context"
	"encoding/xml"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/davproto"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// The SEARCH, version-tree REPORT and PROPPATCH result this server
// wrote before every 207 went through propfind.go's writer: each built
// a davproto.Multistatus and Marshalled it. SEARCH read its scope with
// one Stat per resource and one PropGet per resource and referenced
// name. Kept, unchanged but for their names, as the references
// TestSearchMatchesReference, TestReportMatchesReference and
// TestProppatchMatchesReference hold the spliced responses to.

// refMultistatus renders ms from a DOM.
func refMultistatus(w http.ResponseWriter, ms davproto.Multistatus) {
	body := ms.Marshal()
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusMultiStatus)
	w.Write(body)
}

// refWalk visits p and, if it is a collection, every descendant,
// pre-order, one Stat and one List at a time.
func refWalk(ctx context.Context, s store.Store, p string, fn func(store.ResourceInfo) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ri, err := s.Stat(ctx, p)
	if err != nil {
		return err
	}
	if err := fn(ri); err != nil {
		return err
	}
	if !ri.IsCollection {
		return nil
	}
	members, err := s.List(ctx, p)
	if err != nil {
		return err
	}
	for _, m := range members {
		if err := refWalk(ctx, s, m.Path, fn); err != nil {
			return err
		}
	}
	return nil
}

func (h *Handler) refHandleSearch(w http.ResponseWriter, r *http.Request) {
	bs, err := davproto.ParseSearch(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scope, err := h.resourcePath(bs.Scope)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ri, err := h.store.Stat(r.Context(), scope)
	if err != nil {
		h.fail(w, r, err)
		return
	}

	var targets []store.ResourceInfo
	switch bs.Depth {
	case davproto.Depth0:
		targets = []store.ResourceInfo{ri}
	case davproto.Depth1:
		targets = []store.ResourceInfo{ri}
		if ri.IsCollection {
			members, err := h.store.List(r.Context(), scope)
			if err != nil {
				h.fail(w, r, err)
				return
			}
			targets = append(targets, filterVersionStore(members)...)
		}
	default:
		if err := refWalk(r.Context(), h.store, scope, func(m store.ResourceInfo) error {
			if visible(m.Path) || !visible(scope) {
				targets = append(targets, m)
			}
			return nil
		}); err != nil {
			h.fail(w, r, err)
			return
		}
	}

	var ms davproto.Multistatus
	for _, t := range targets {
		match, err := h.refSearchMatch(r.Context(), t, bs.Where)
		if err != nil {
			h.fail(w, r, err)
			return
		}
		if !match {
			continue
		}
		resp := davproto.Response{Href: h.opts.Prefix + t.Path}
		var found, missing []davproto.Property
		for _, name := range bs.Select {
			prop, ok, err := h.refSearchProp(r.Context(), t, name)
			if err != nil {
				h.fail(w, r, err)
				return
			}
			if ok {
				found = append(found, prop)
			} else {
				missing = append(missing, davproto.NewTextProperty(name.Space, name.Local, ""))
			}
		}
		if len(found) > 0 || len(bs.Select) == 0 {
			resp.Propstats = append(resp.Propstats,
				davproto.Propstat{Props: found, Status: http.StatusOK})
		}
		if len(missing) > 0 {
			resp.Propstats = append(resp.Propstats,
				davproto.Propstat{Props: missing, Status: http.StatusNotFound})
		}
		ms.Responses = append(ms.Responses, resp)
	}
	refMultistatus(w, ms)
}

// refSearchMatch evaluates the where clause for one resource, fetching
// and decoding each referenced property once.
func (h *Handler) refSearchMatch(ctx context.Context, ri store.ResourceInfo, where davproto.SearchExpr) (bool, error) {
	if where == nil {
		return true, nil
	}
	type memo struct {
		value string
		ok    bool
	}
	cache := map[xml.Name]memo{}
	var firstErr error
	resolver := func(name xml.Name) (string, bool) {
		if m, seen := cache[name]; seen {
			return m.value, m.ok
		}
		var m memo
		raw, ok, err := h.store.PropGet(ctx, ri.Path, name)
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
		case ok:
			// Undecodable properties stay invisible to search.
			if prop, err := davproto.DecodeProperty(raw); err == nil {
				m = memo{value: prop.Text(), ok: true}
			}
		case davproto.IsLiveProp(name):
			if prop, ok := h.liveProp(ri, name); ok {
				m = memo{value: prop.Text(), ok: true}
			}
		}
		cache[name] = m
		return m.value, m.ok
	}
	match := where.Eval(resolver)
	if firstErr != nil {
		return false, firstErr
	}
	return match, nil
}

// refSearchProp materializes one selected property for the result set.
func (h *Handler) refSearchProp(ctx context.Context, ri store.ResourceInfo, name xml.Name) (davproto.Property, bool, error) {
	if davproto.IsLiveProp(name) {
		prop, ok := h.liveProp(ri, name)
		return prop, ok, nil
	}
	raw, ok, err := h.store.PropGet(ctx, ri.Path, name)
	if err != nil || !ok {
		return davproto.Property{}, false, err
	}
	prop, err := davproto.DecodeProperty(raw)
	if err != nil {
		return davproto.Property{}, false, nil
	}
	return prop, true, nil
}

func (h *Handler) refHandleReport(w http.ResponseWriter, r *http.Request) {
	p, err := h.resourcePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	root, err := xmldom.Parse(r.Body)
	if err != nil {
		http.Error(w, "bad report body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if root.Name.Space != davproto.NS || root.Name.Local != "version-tree" {
		http.Error(w, "only DAV:version-tree reports are supported", http.StatusForbidden)
		return
	}
	if _, err := h.store.Stat(r.Context(), p); err != nil {
		h.fail(w, r, err)
		return
	}
	controlled, count, err := h.isVersionControlled(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	if !controlled {
		http.Error(w, "resource is not version-controlled", http.StatusConflict)
		return
	}
	var ms davproto.Multistatus
	for n := 1; n <= count; n++ {
		vp := versionPath(p, n)
		ri, err := h.store.Stat(r.Context(), vp)
		if err != nil {
			continue // pruned version
		}
		props := []davproto.Property{
			davproto.NewTextProperty(davproto.NS, "version-name", strconv.Itoa(n)),
		}
		for _, name := range []xml.Name{davproto.PropGetContentLength,
			davproto.PropGetLastModified, davproto.PropGetETag} {
			if prop, ok := h.liveProp(ri, name); ok {
				props = append(props, prop)
			}
		}
		ms.Responses = append(ms.Responses, davproto.Response{
			Href:      h.opts.Prefix + vp,
			Propstats: []davproto.Propstat{{Props: props, Status: http.StatusOK}},
		})
	}
	refMultistatus(w, ms)
}

// refProppatchResult renders the per-property multistatus.
func (h *Handler) refProppatchResult(w http.ResponseWriter, p string, ops []davproto.PatchOp, statuses []int) {
	byStatus := map[int][]davproto.Property{}
	var order []int
	for i, op := range ops {
		st := statuses[i]
		if _, seen := byStatus[st]; !seen {
			order = append(order, st)
		}
		name := op.Prop.Name()
		byStatus[st] = append(byStatus[st], davproto.NewTextProperty(name.Space, name.Local, ""))
	}
	sort.Ints(order)
	resp := davproto.Response{Href: h.opts.Prefix + p}
	for _, st := range order {
		resp.Propstats = append(resp.Propstats, davproto.Propstat{Props: byStatus[st], Status: st})
	}
	refMultistatus(w, davproto.Multistatus{Responses: []davproto.Response{resp}})
}
