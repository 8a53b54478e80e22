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
// Versioning state is one dead property under a private namespace, so
// any Store implementation supports it unchanged: a document is under
// version control when its version count is at least 1. Snapshots carry
// it too, where no client reads it: PROPFIND and SEARCH hide the
// namespace and the version tree refuses every other method.

// versionRoot is the hidden subtree holding version snapshots.
const versionRoot = "/.davversions"

// vcNS is the private namespace for version bookkeeping properties.
const vcNS = "urn:repro-dav:versioning"

var propVCCount = xml.Name{Space: vcNS, Local: "version-count"}

// visible reports whether a path belongs to the live tree (true) or
// the hidden version store (false).
func visible(p string) bool {
	return p != versionRoot && !store.IsAncestor(versionRoot, p)
}

// isVersionControlled reads the bookkeeping of a resource out of its
// dead-property map: whether it is under version control, and how many
// versions it has.
func isVersionControlled(props map[xml.Name][]byte) (bool, int) {
	count, _ := strconv.Atoi(string(props[propVCCount]))
	return count >= 1, count
}

// versionPath is where version n of resource p is snapshotted.
func versionPath(p string, n int) string {
	return versionRoot + p + "/" + strconv.Itoa(n)
}

// snapshotVersion copies the current state of p into the version tree
// as version n. The copy itself says what is in the way: ErrConflict
// when the version collections are missing, ErrExists when a snapshot
// whose count never landed holds the path.
func (h *Handler) snapshotVersion(ctx context.Context, p string, n int) error {
	dst := versionPath(p, n)
	err := h.store.CopyTreeAtomic(ctx, p, dst, store.CopyOptions{})
	switch {
	case errors.Is(err, store.ErrConflict):
		err = h.mkcolAll(ctx, store.ParentPath(dst))
	case errors.Is(err, store.ErrExists):
		err = h.store.Delete(ctx, dst)
	default:
		return err
	}
	if err != nil {
		return err
	}
	return h.store.CopyTreeAtomic(ctx, p, dst, store.CopyOptions{})
}

// mkcolAll makes the collection p and whichever of its ancestors are
// missing; an existing one is not an error.
func (h *Handler) mkcolAll(ctx context.Context, p string) error {
	err := h.store.Mkcol(ctx, p)
	if errors.Is(err, store.ErrConflict) {
		if err = h.mkcolAll(ctx, store.ParentPath(p)); err == nil {
			err = h.store.Mkcol(ctx, p)
		}
	}
	if errors.Is(err, store.ErrExists) {
		return nil
	}
	return err
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
		if controlled, _ := isVersionControlled(cur.props); controlled {
			w.WriteHeader(http.StatusOK)
			return
		}
		if err := h.snapshotVersion(r.Context(), p, 1); err != nil {
			h.fail(w, r, err)
			return
		}
		if err := h.store.PropPut(r.Context(), p, propVCCount, []byte("1")); err != nil {
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
