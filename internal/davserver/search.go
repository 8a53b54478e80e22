package davserver

import (
	"context"
	"encoding/xml"
	"net/http"

	"repro/internal/davproto"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// handleSearch implements the DASL SEARCH method (basicsearch subset)
// — the server-side query capability the paper anticipated replacing
// its client-side metadata walks.
func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request, _ string) {
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

	// Gather the scoped resources.
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
		if err := store.Walk(r.Context(), h.store, scope, func(m store.ResourceInfo) error {
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
		match, err := h.evalTarget(r.Context(), t, bs.Where)
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
			prop, ok, err := h.selectProp(r.Context(), t, name)
			if err != nil {
				h.fail(w, r, err)
				return
			}
			if ok {
				found = append(found, prop)
			} else {
				missing = append(missing, davproto.Property{
					XML: xmldom.NewElement(name.Space, name.Local)})
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
	h.writeMultistatus(w, ms)
}

// evalTarget evaluates the where clause for one resource. Properties
// are fetched and decoded lazily and memoized: a search referencing two
// property names touches only those two, not the resource's whole
// property set (which may be tens of kilobytes). A store failure is
// the request's error, not a non-match: a search whose reads failed
// must not answer as if the rows did not exist.
func (h *Handler) evalTarget(ctx context.Context, ri store.ResourceInfo, where davproto.SearchExpr) (bool, error) {
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

// selectProp materializes one selected property for the result set.
func (h *Handler) selectProp(ctx context.Context, ri store.ResourceInfo, name xml.Name) (davproto.Property, bool, error) {
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
