package davserver

import (
	"bytes"
	"encoding/xml"
	"net/http"
	"net/url"

	"repro/internal/davproto"
	"repro/internal/store"
)

// handleSearch implements the DASL SEARCH method (basicsearch subset)
// — the server-side query capability the paper anticipated replacing
// its client-side metadata walks. The scope is read as a PROPFIND of it
// would be (eachTarget), and each match is written as a PROPFIND of
// the selected properties would write it.
func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request, _ string) {
	bs, err := davproto.ParseSearch(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The scope is an href, percent-encoded as a request line is.
	scope, err := url.PathUnescape(bs.Scope)
	if err == nil {
		scope, err = h.resourcePath(scope)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.refusedDeep(w, bs.Depth) {
		return
	}
	h.multistatus(w, r, func(buf *bytes.Buffer) error {
		pw := propfindWriter{h: h, buf: buf,
			pf: davproto.Propfind{Kind: davproto.PropfindProps, Props: bs.Select}}
		return h.eachTarget(r.Context(), scope, bs.Depth, func(mp store.MemberProps) {
			if bs.Where == nil || bs.Where.Eval(func(name xml.Name) (string, bool) {
				return h.searchValue(mp, name)
			}) {
				pw.response(mp)
			}
		})
	})
}

// searchValue is the text of one property the where clause names, read
// from the resource's loaded view: a live property is computed, a dead
// one decoded. Only the names the clause references are decoded. A
// stored value that does not decode, and the versioning bookkeeping,
// are invisible to search.
func (h *Handler) searchValue(mp store.MemberProps, name xml.Name) (string, bool) {
	if davproto.IsLiveProp(name) {
		prop, ok := h.liveProp(mp.Info, name)
		if !ok {
			return "", false
		}
		return prop.Text(), true
	}
	raw, ok := mp.Props[name]
	if !ok || name.Space == vcNS {
		return "", false
	}
	prop, err := davproto.DecodeProperty(raw)
	if err != nil {
		return "", false
	}
	return prop.Text(), true
}
