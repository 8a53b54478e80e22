package davserver

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

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
// Versioning state is one dead property under a private namespace, so
// any Store implementation supports it unchanged. Its value is the
// version count and the id of the history: "<n> <id>", and the history
// is the collection /.davversions/<id>. The id, not the document's path,
// names the history, so MOVE carries it (the property moves with the
// document), COPY makes an unversioned resource (the store leaves
// store.VersioningNS behind), and a new document at a deleted one's
// path starts a new history. A bare "<n>", which older builds wrote,
// names the path layout /.davversions + the document's path.

// versionRoot is the hidden subtree holding version histories.
const versionRoot = "/.davversions"

// vcNS is the private namespace for version bookkeeping properties.
const vcNS = store.VersioningNS

var propVCCount = xml.Name{Space: vcNS, Local: "version-count"}

// visible reports whether a path belongs to the live tree (true) or
// the hidden version store (false).
func visible(p string) bool {
	return p != versionRoot && !store.IsAncestor(versionRoot, p)
}

// history reads a document's versioning bookkeeping out of its dead
// properties: how many versions it has (0 when it is not under version
// control) and the collection that holds them, version n at root/n.
// It is the one place a history's location is worked out.
func history(p string, props map[xml.Name][]byte) (count int, root string) {
	n, id, ok := strings.Cut(string(props[propVCCount]), " ")
	count, _ = strconv.Atoi(n)
	if !ok {
		return count, versionRoot + p
	}
	return count, versionRoot + "/" + id
}

// newHistory makes the collection of a new history and returns its id.
// The Mkcol is also the uniqueness check: ErrExists means the id is
// taken, and ErrConflict means the store holds no history yet.
func (h *Handler) newHistory(ctx context.Context) (id string, err error) {
	for range 4 { // a 64-bit id is taken again only by a broken store
		var b [8]byte
		if _, err = rand.Read(b[:]); err != nil {
			return "", err
		}
		id = hex.EncodeToString(b[:])
		err = h.store.Mkcol(ctx, versionRoot+"/"+id)
		if errors.Is(err, store.ErrConflict) {
			if err = h.store.Mkcol(ctx, versionRoot); err == nil || errors.Is(err, store.ErrExists) {
				err = h.store.Mkcol(ctx, versionRoot+"/"+id)
			}
		}
		if !errors.Is(err, store.ErrExists) {
			return id, err
		}
	}
	return "", err
}

// snapshotVersion copies the current state of p to dst, a version's
// place in its history. ErrExists is the debris of a snapshot whose
// count never landed, and the new one replaces it.
func (h *Handler) snapshotVersion(ctx context.Context, p, dst string) error {
	err := h.store.CopyTreeAtomic(ctx, p, dst, store.CopyOptions{})
	if !errors.Is(err, store.ErrExists) {
		return err
	}
	if err := h.store.Delete(ctx, dst); err != nil {
		return err
	}
	return h.store.CopyTreeAtomic(ctx, p, dst, store.CopyOptions{})
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
	h.write(w, r, p, nil, []string{p}, readProps, func(cur current) {
		if cur.err != nil {
			h.fail(w, r, cur.err)
			return
		}
		if cur.ri.IsCollection {
			http.Error(w, "collections cannot be version-controlled", http.StatusMethodNotAllowed)
			return
		}
		if count, _ := history(p, cur.props); count >= 1 {
			w.WriteHeader(http.StatusOK)
			return
		}
		id, err := h.newHistory(r.Context())
		if err == nil {
			err = h.snapshotVersion(r.Context(), p, versionRoot+"/"+id+"/1")
		}
		if err != nil {
			h.fail(w, r, err)
			return
		}
		if err := h.store.PropPut(r.Context(), p, propVCCount, []byte("1 "+id)); err != nil {
			h.fail(w, r, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
}

// autoVersionAfterPut appends a new version after a successful write
// to a version-controlled document; props are the document's dead
// properties as the PUT read them before writing. The caller passes a
// context detached from the request's cancellation: the PUT has already
// landed, and a client abort must not leave the history missing the
// version it just created.
func (h *Handler) autoVersionAfterPut(ctx context.Context, p string, props map[xml.Name][]byte) error {
	count, root := history(p, props)
	if count < 1 {
		return nil
	}
	next := strconv.Itoa(count + 1)
	if err := h.snapshotVersion(ctx, p, root+"/"+next); err != nil {
		return err
	}
	// Only the count changes; the history's id, if any, stays.
	if _, id, ok := strings.Cut(string(props[propVCCount]), " "); ok {
		next += " " + id
	}
	return h.store.PropPut(ctx, p, propVCCount, []byte(next))
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
	count, vroot := history(p, props)
	if count < 1 {
		http.Error(w, "resource is not version-controlled", http.StatusConflict)
		return
	}
	// One listing reads the whole history: version n is the member named
	// n, in slot n-1. An empty slot is a pruned version, and a missing
	// history has none.
	members, err := h.store.ListWithProps(r.Context(), vroot)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		h.fail(w, r, err)
		return
	}
	versions := make([]store.ResourceInfo, count)
	for _, m := range members {
		if n, err := strconv.Atoi(m.Info.Name()); err == nil && n >= 1 && n <= count {
			versions[n-1] = m.Info
		}
	}
	h.multistatus(w, r, func(buf *bytes.Buffer) error {
		for i, ri := range versions {
			if ri.Path == "" {
				continue
			}
			buf.WriteString(`<D:response>`)
			h.writeHref(buf, ri.Path)
			buf.WriteString(propstatOpen + `<D:version-name>` + strconv.Itoa(i+1) + `</D:version-name>`)
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
