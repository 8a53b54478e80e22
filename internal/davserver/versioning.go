package davserver

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/davproto"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// Versioning: a DeltaV-flavoured extension implementing the paper's
// title capability ("Distributed Authoring and Versioning"; the paper
// cites the then-draft WebDAV versioning goals as anticipated
// functionality).
//
// Model (auto-versioning, the simplest DeltaV mode):
//
//   - VERSION-CONTROL on a document starts its history: the current
//     state becomes version 1.
//   - Every subsequent successful PUT to the document appends a new
//     version snapshot (body + dead properties).
//   - REPORT with a DAV:version-tree body lists the history as a 207
//     multistatus; each version is an ordinary read-only resource under
//     the hidden /.davversions tree, so old states are fetched with
//     plain GET.
//   - The version tree is invisible to PROPFIND/GET listings of the
//     live tree and rejects client writes.
//
// Versioning state is kept in dead properties under a private
// namespace so any Store implementation supports it unchanged.

// versionRoot is the hidden subtree holding version snapshots.
const versionRoot = "/.davversions"

// vcNS is the private namespace for version bookkeeping properties.
const vcNS = "urn:repro-dav:versioning"

var (
	propVCControlled = xml.Name{Space: vcNS, Local: "version-controlled"}
	propVCCount      = xml.Name{Space: vcNS, Local: "version-count"}
)

// visible reports whether a path belongs to the live tree (true) or
// the hidden version store (false).
func visible(p string) bool {
	return p != versionRoot && !store.IsAncestor(versionRoot, p)
}

// isVersionControlled reads the bookkeeping properties of a resource
// out of its dead-property map: whether it is under version control,
// and how many versions it has.
func isVersionControlled(props map[xml.Name][]byte) (bool, int) {
	if string(props[propVCControlled]) != "1" {
		return false, 0
	}
	count, _ := strconv.Atoi(string(props[propVCCount]))
	return true, count
}

// versionPath is where version n of resource p is snapshotted.
func versionPath(p string, n int) string {
	return versionRoot + p + "/" + strconv.Itoa(n)
}

// snapshotVersion copies the current state of p into the version tree
// as version n.
func (h *Handler) snapshotVersion(ctx context.Context, p string, n int) error {
	dst := versionPath(p, n)
	// Ensure the version container chain exists.
	parent := store.ParentPath(dst)
	var missing []string
	for at := parent; at != "/"; at = store.ParentPath(at) {
		if _, err := h.store.Stat(ctx, at); err == nil {
			break
		}
		missing = append([]string{at}, missing...)
	}
	for _, dir := range missing {
		if err := h.store.Mkcol(ctx, dir); err != nil && !errors.Is(err, store.ErrExists) {
			return err
		}
	}
	if _, err := h.store.Stat(ctx, dst); err == nil {
		if err := h.store.Delete(ctx, dst); err != nil {
			return err
		}
	}
	if err := h.store.CopyTreeAtomic(ctx, p, dst, store.CopyOptions{}); err != nil {
		return err
	}
	// The snapshot's own bookkeeping props would be misleading; drop
	// them from the copy.
	h.store.PropDelete(ctx, dst, propVCControlled)
	h.store.PropDelete(ctx, dst, propVCCount)
	return nil
}

// handleVersionControl implements the VERSION-CONTROL method: the
// resource's current state becomes version 1. Idempotent on already
// controlled resources (DeltaV semantics).
func (h *Handler) handleVersionControl(w http.ResponseWriter, r *http.Request, p string) {
	if !visible(p) {
		http.Error(w, "the version store is read-only", http.StatusForbidden)
		return
	}
	// Under the gate, no PUT lands between the read and the snapshot:
	// version 1 is the state VERSION-CONTROL saw.
	g, err := h.gate.Lock(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	defer g.Release()
	ri, props, err := h.store.StatWithProps(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	if ri.IsCollection {
		http.Error(w, "collections cannot be version-controlled", http.StatusMethodNotAllowed)
		return
	}
	if err := h.checkWrite(r, p); err != nil {
		h.fail(w, r, err)
		return
	}
	if controlled, _ := isVersionControlled(props); controlled {
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := h.snapshotVersion(r.Context(), p, 1); err != nil {
		h.fail(w, r, err)
		return
	}
	if err := h.store.PropPut(r.Context(), p, propVCControlled, []byte("1")); err != nil {
		h.fail(w, r, err)
		return
	}
	if err := h.store.PropPut(r.Context(), p, propVCCount, []byte("1")); err != nil {
		h.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// autoVersionAfterPut appends a new version after a successful write
// to a version-controlled document; props are the document's dead
// properties as the PUT read them before writing. The caller passes a
// context detached from the request's cancellation: the PUT has already
// landed, and a client abort must not leave the history missing the
// version it just created.
func (h *Handler) autoVersionAfterPut(ctx context.Context, p string, props map[xml.Name][]byte) error {
	controlled, count := isVersionControlled(props)
	if !controlled {
		return nil
	}
	next := count + 1
	if err := h.snapshotVersion(ctx, p, next); err != nil {
		return err
	}
	return h.store.PropPut(ctx, p, propVCCount, []byte(strconv.Itoa(next)))
}

// handleReport implements the REPORT method for DAV:version-tree: a
// multistatus with one response per version, newest last, carrying
// version-name plus the standard live properties.
func (h *Handler) handleReport(w http.ResponseWriter, r *http.Request, p string) {
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
	controlled, count := isVersionControlled(props)
	if !controlled {
		http.Error(w, "resource is not version-controlled", http.StatusConflict)
		return
	}
	h.multistatus(w, r, func(buf *bytes.Buffer) error {
		for n := 1; n <= count; n++ {
			vp := versionPath(p, n)
			ri, err := h.store.Stat(r.Context(), vp)
			if err != nil {
				continue // pruned version
			}
			buf.WriteString(`<D:response>`)
			h.writeHref(buf, vp)
			buf.WriteString(propstatOpen + `<D:version-name>` + strconv.Itoa(n) + `</D:version-name>`)
			for _, name := range []xml.Name{davproto.PropGetContentLength,
				davproto.PropGetLastModified, davproto.PropGetETag} {
				if prop, ok := h.liveProp(ri, name); ok {
					xmldom.MarshalTo(buf, prop.Node())
				}
			}
			buf.WriteString(propstatOK + `</D:response>`)
		}
		return nil
	})
}

// guardVersionStore rejects client mutations inside the version tree.
// Reads (GET/HEAD/PROPFIND) are allowed so old versions stay
// retrievable.
func guardVersionStore(method, p string) error {
	if visible(p) {
		return nil
	}
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodOptions, "PROPFIND":
		return nil
	default:
		return fmt.Errorf("the version store is read-only")
	}
}
