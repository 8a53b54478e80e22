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
// name. Kept as the references TestSearchMatchesReference,
// TestReportMatchesReference and TestProppatchMatchesReference hold the
// spliced responses to, unchanged but for their names and for the
// per-name reads, which go through refList and refPropGet now that
// Store reads a resource's properties only together with it.

// refMultistatus renders ms from a DOM.
func refMultistatus(w http.ResponseWriter, ms davproto.Multistatus) {
	body := ms.Marshal()
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusMultiStatus)
	w.Write(body)
}

// refList lists the members of the collection at p.
func refList(ctx context.Context, s store.Store, p string) ([]store.ResourceInfo, error) {
	members, err := s.ListWithProps(ctx, p)
	infos := make([]store.ResourceInfo, len(members))
	for i, m := range members {
		infos[i] = m.Info
	}
	return infos, err
}

// refPropGet reads the dead property name of the resource at p.
func refPropGet(ctx context.Context, s store.Store, p string, name xml.Name) ([]byte, bool, error) {
	_, props, err := s.StatWithProps(ctx, p)
	v, ok := props[name]
	return v, ok, err
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
	members, err := refList(ctx, s, p)
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
			members, err := refList(r.Context(), h.store, scope)
			if err != nil {
				h.fail(w, r, err)
				return
			}
			for _, m := range members {
				if visible(m.Path) {
					targets = append(targets, m)
				}
			}
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
		raw, ok, err := refPropGet(ctx, h.store, ri.Path, name)
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
	raw, ok, err := refPropGet(ctx, h.store, ri.Path, name)
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
	_, props, err := h.store.StatWithProps(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	count, vroot := history(p, props)
	if count < 1 {
		http.Error(w, "resource is not version-controlled", http.StatusConflict)
		return
	}
	var ms davproto.Multistatus
	for n := 1; n <= count; n++ {
		vp := vroot + "/" + strconv.Itoa(n)
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
