package davserver

import (
	"encoding/xml"
	"net/http"
	"sort"

	"repro/internal/davproto"
	"repro/internal/store"
)

// The PROPFIND this server shipped before it stopped building a DOM:
// collect the targets, decode every stored fragment back into a tree,
// build a davproto.Multistatus, Marshal it. Kept, unchanged, as the
// reference TestPropfindMatchesReference holds the spliced response to.

func (h *Handler) refHandlePropfind(w http.ResponseWriter, r *http.Request) {
	p, err := h.resourcePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	depth, err := davproto.ParseDepth(r.Header.Get("Depth"), davproto.DepthInfinity)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pf, err := davproto.ParsePropfind(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ri, props, err := h.store.StatWithProps(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	self := store.MemberProps{Info: ri, Props: props}

	var targets []store.MemberProps
	switch depth {
	case davproto.Depth0:
		targets = []store.MemberProps{self}
	case davproto.Depth1:
		targets = []store.MemberProps{self}
		if ri.IsCollection {
			members, err := h.store.ListWithProps(r.Context(), p)
			if err != nil {
				h.fail(w, r, err)
				return
			}
			for _, m := range members {
				if visible(m.Info.Path) {
					targets = append(targets, m)
				}
			}
		}
	default:
		err = store.WalkWithProps(r.Context(), h.store, self, func(m store.MemberProps) error {
			if visible(m.Info.Path) || !visible(p) {
				targets = append(targets, m)
			}
			return nil
		})
		if err != nil {
			h.fail(w, r, err)
			return
		}
	}

	var ms davproto.Multistatus
	for _, t := range targets {
		ms.Responses = append(ms.Responses, h.refPropfindResponse(t, pf))
	}
	refMultistatus(w, ms)
}

func (h *Handler) refDecodeDeadProps(p string, raw map[xml.Name][]byte) []davproto.Property {
	names := make([]xml.Name, 0, len(raw))
	for n := range raw {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Space != names[j].Space {
			return names[i].Space < names[j].Space
		}
		return names[i].Local < names[j].Local
	})
	props := make([]davproto.Property, 0, len(names))
	for _, n := range names {
		prop, err := davproto.DecodeProperty(raw[n])
		if err != nil {
			h.logf("dav: undecodable stored property %v on %s: %v", n, p, err)
			continue
		}
		props = append(props, prop)
	}
	return props
}

func (h *Handler) refPropfindResponse(mp store.MemberProps, pf davproto.Propfind) davproto.Response {
	ri := mp.Info
	resp := davproto.Response{Href: h.opts.Prefix + ri.Path}
	switch pf.Kind {
	case davproto.PropfindAllProp, davproto.PropfindPropName:
		var found []davproto.Property
		for _, name := range davproto.LiveProps {
			if prop, ok := h.liveProp(ri, name); ok {
				found = append(found, prop)
			}
		}
		found = append(found, h.refDecodeDeadProps(ri.Path, mp.Props)...)
		if pf.Kind == davproto.PropfindPropName {
			for i, prop := range found {
				found[i] = davproto.NewTextProperty(prop.Name().Space, prop.Name().Local, "")
			}
		}
		resp.Propstats = []davproto.Propstat{{Props: found, Status: http.StatusOK}}
	case davproto.PropfindProps:
		var found, missing []davproto.Property
		for _, name := range pf.Props {
			if davproto.IsLiveProp(name) {
				if prop, ok := h.liveProp(ri, name); ok {
					found = append(found, prop)
					continue
				}
				missing = append(missing, davproto.NewTextProperty(name.Space, name.Local, ""))
				continue
			}
			raw, ok := mp.Props[name]
			if !ok {
				missing = append(missing, davproto.NewTextProperty(name.Space, name.Local, ""))
				continue
			}
			prop, err := davproto.DecodeProperty(raw)
			if err != nil {
				h.logf("dav: undecodable stored property %v on %s: %v", name, ri.Path, err)
				missing = append(missing, davproto.NewTextProperty(name.Space, name.Local, ""))
				continue
			}
			found = append(found, prop)
		}
		if len(found) > 0 {
			resp.Propstats = append(resp.Propstats, davproto.Propstat{Props: found, Status: http.StatusOK})
		}
		if len(missing) > 0 {
			resp.Propstats = append(resp.Propstats, davproto.Propstat{Props: missing, Status: http.StatusNotFound})
		}
		if len(resp.Propstats) == 0 {
			resp.Propstats = []davproto.Propstat{{Status: http.StatusOK}}
		}
	}
	return resp
}
