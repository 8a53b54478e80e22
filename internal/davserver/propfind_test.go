package davserver

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// newLoggedFSServer is newTestServer over an FSStore whose root the
// test can reach, with the handler's error log captured.
func newLoggedFSServer(t *testing.T, flavour dbm.Flavour, prefix string) (srv *httptest.Server, h *Handler, root string, log *bytes.Buffer) {
	t.Helper()
	root = t.TempDir()
	s, err := store.NewFSStore(root, flavour)
	if err != nil {
		t.Fatal(err)
	}
	log = &bytes.Buffer{}
	h = NewHandler(s, &Options{Prefix: prefix, Logger: slog.New(slog.NewTextHandler(log, nil))})
	srv = httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, h, root, log
}

// richProps are dead properties whose stored fragments exercise what
// the splice must carry through untouched: attributes (one in a second
// namespace), nested elements, three namespaces in one value, non-ASCII
// names, and text that Marshal writes as character references.
func richProps() []davproto.Property {
	nested := xmldom.NewElement("urn:ecce", "basis")
	nested.SetAttr("", "kind", `"contracted" & <split>`)
	nested.SetAttr("urn:units", "unit", "Å")
	shell := nested.Add("urn:ecce", "shell")
	shell.AddText("urn:chem", "exponent", "1.5e-3")
	shell.AddText("", "plain", "no namespace")
	nested.Text = "mixed "
	return []davproto.Property{
		davproto.NewTextProperty("urn:ecce", "formula", "UO2(H2O)15"),
		davproto.NewTextProperty("urn:ecce", "notes", "a<b && \"q\" 'r'\ttab\nnewline\rreturn ]]> é"),
		davproto.NewTextProperty("urn:ecce", "größe", "zwölf"),
		davproto.NewTextProperty("urn:日本", "名前", "水"),
		davproto.NewTextProperty("", "bare", "in no namespace"),
		davproto.NewTextProperty("urn:ecce", "empty", ""),
		davproto.NewNodeProperty(nested),
	}
}

// canonical renders a 207 for comparison, each href decoded: the
// references write the path as it is, davd a URI reference.
func canonical(ms davproto.Multistatus) string {
	var sb strings.Builder
	for _, r := range ms.Responses {
		href, err := url.PathUnescape(r.Href)
		if err != nil {
			href = r.Href
		}
		fmt.Fprintf(&sb, "response %s status=%d\n", href, r.Status)
		for _, ps := range r.Propstats {
			fmt.Fprintf(&sb, "  propstat %d\n", ps.Status)
			for _, p := range ps.Props {
				fmt.Fprintf(&sb, "    %s\n", p.Encode())
			}
		}
	}
	return sb.String()
}

// TestPropfindMatchesReference holds the spliced 207 to the DOM-built
// one it replaced (propfind_ref_test.go): over every request form,
// depth and prefix setting, both davclient parsers must read the same
// hrefs, propstat grouping, statuses, property order and property trees
// from the two bodies.
func TestPropfindMatchesReference(t *testing.T) {
	ecce := func(local string) xml.Name { return xml.Name{Space: "urn:ecce", Local: local} }
	requests := []struct {
		name string
		pf   davproto.Propfind
	}{
		{"allprop", davproto.Propfind{Kind: davproto.PropfindAllProp}},
		{"propname", davproto.Propfind{Kind: davproto.PropfindPropName}},
		{"named found", davproto.Propfind{Kind: davproto.PropfindProps,
			Props: []xml.Name{ecce("notes"), ecce("basis"), {Space: "urn:日本", Local: "名前"}, {Local: "bare"}}}},
		{"named missing", davproto.Propfind{Kind: davproto.PropfindProps,
			Props: []xml.Name{ecce("absent"), {Space: "urn:other", Local: "größe"}}}},
		{"named live", davproto.Propfind{Kind: davproto.PropfindProps,
			Props: []xml.Name{davproto.PropGetContentLength, davproto.PropResourceType, davproto.PropGetETag,
				davproto.PropSupportedLock, davproto.PropLockDiscovery, davproto.PropDisplayName}}},
		{"named mixed", davproto.Propfind{Kind: davproto.PropfindProps,
			Props: []xml.Name{ecce("absent"), ecce("formula"), davproto.PropGetContentType, ecce("größe"),
				davproto.PropCreationDate, ecce("empty"), {Local: "nowhere"}}}},
		{"named nothing", davproto.Propfind{Kind: davproto.PropfindProps}},
	}
	for _, prefix := range []string{"", "/dav"} {
		srv, h, _, log := newLoggedFSServer(t, dbm.GDBM, prefix)
		ref := httptest.NewServer(http.HandlerFunc(h.refHandlePropfind))
		t.Cleanup(ref.Close)

		setup, err := davclient.New(davclient.Config{BaseURL: srv.URL + prefix})
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"/col", "/col/sub", "/col/sub/deeper"} {
			if err := setup.Mkcol(col); err != nil {
				t.Fatal(err)
			}
		}
		for _, doc := range []string{"/col/a.txt", "/col/b & c.txt", "/col/sub/c.txt", "/col/sub/deeper/d.txt"} {
			if _, err := setup.Put(doc, strings.NewReader("body of "+doc), "text/plain"); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []string{"/col", "/col/a.txt", "/col/sub/c.txt"} {
			if err := setup.SetProps(p, richProps()...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := setup.Lock("/col/a.txt", davproto.LockExclusive, davproto.Depth0, "tester", 0); err != nil {
			t.Fatal(err)
		}

		for _, parser := range []davclient.ParserKind{davclient.ParserDOM, davclient.ParserSAX} {
			got, err := davclient.New(davclient.Config{BaseURL: srv.URL + prefix, Parser: parser})
			if err != nil {
				t.Fatal(err)
			}
			want, err := davclient.New(davclient.Config{BaseURL: ref.URL + prefix, Parser: parser})
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []string{"/col", "/col/a.txt", "/col/b & c.txt"} {
				for _, depth := range []davproto.Depth{davproto.Depth0, davproto.Depth1, davproto.DepthInfinity} {
					for _, rq := range requests {
						name := fmt.Sprintf("prefix=%q parser=%d %s depth=%s %s", prefix, parser, target, depth, rq.name)
						gotMS, err := got.PropFind(target, depth, rq.pf)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						wantMS, err := want.PropFind(target, depth, rq.pf)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						if g, w := canonical(gotMS), canonical(wantMS); g != w {
							t.Errorf("%s:\n--- spliced\n%s--- reference\n%s", name, g, w)
						}
						if len(wantMS.Responses) == 0 {
							t.Fatalf("%s: reference listed nothing", name)
						}
					}
				}
			}
		}
		if log.Len() != 0 {
			t.Errorf("prefix=%q: error log not empty:\n%s", prefix, log)
		}
	}
}

// propsFileOf returns the one property database under root whose base
// name is name.
func propsFileOf(t *testing.T, root, name string) string {
	t.Helper()
	var found []string
	filepath.WalkDir(root, func(p string, _ os.DirEntry, _ error) error {
		if filepath.Base(p) == name+store.PropsExt {
			found = append(found, p)
		}
		return nil
	})
	if len(found) != 1 {
		t.Fatalf("property databases named %s under %s: %v", name, root, found)
	}
	return found[0]
}

// dropCachedHandle makes the store open the property database of the
// document at p again on its next use. A cached handle serves the image
// it validated when it was opened, so damage planted in the file behind
// it shows at the next open — which is an eviction, an invalidation or
// a restart away. Renaming the document away and back is the
// invalidation: it moves the file, reads none of it, and drops the
// handle.
func dropCachedHandle(t *testing.T, h *Handler, p string) {
	t.Helper()
	for _, mv := range [][2]string{{p, p + ".away"}, {p + ".away", p}} {
		if err := h.store.Rename(context.Background(), mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
}

func logLines(log *bytes.Buffer) int { return bytes.Count(log.Bytes(), []byte("\n")) }

// One flipped byte inside one stored value must cost exactly that
// property: it alone turns 404 (named) or disappears (allprop), with one
// log line each time, while the body stays well-formed, declares its
// true length, and carries every other stored value byte for byte.
func TestPropfindSurvivesDamagedStoredValue(t *testing.T) {
	srv, h, root, log := newLoggedFSServer(t, dbm.GDBM, "")
	do(t, "PUT", srv.URL+"/doc", nil, "x")
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc", nil, proppatchBodyPairs(
		[2]string{"alpha", "first value"}, [2]string{"bravo", "second-value-to-damage"}, [2]string{"charlie", "third & last"})), 207)
	stored := map[string][]byte{}
	for _, n := range []string{"alpha", "charlie"} {
		_, props, err := h.store.StatWithProps(context.Background(), "/doc")
		v, ok := props[xml.Name{Space: "ecce:", Local: n}]
		if err != nil || !ok {
			t.Fatalf("stored %s: %v %v", n, ok, err)
		}
		stored[n] = v
	}

	// Turn one text byte of bravo's value into a '<': the record is
	// intact, the fragment inside it no longer is.
	file := propsFileOf(t, root, "doc")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("second-value-to-damage"))
	if at < 0 {
		t.Fatal("stored value not found in the database file")
	}
	f, err := os.OpenFile(file, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("<"), int64(at+6)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dropCachedHandle(t, h, "/doc")

	for _, tc := range []struct {
		name, body string
		bravo      int // propstat status bravo is reported under; 0 = not listed
	}{
		{"named", propfindBody("alpha", "bravo", "charlie"), 404},
		{"allprop", "", 0},
	} {
		log.Reset()
		resp := do(t, "PROPFIND", srv.URL+"/doc", map[string]string{"Depth": "0"}, tc.body)
		wantStatus(t, resp, 207)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading body: %v", tc.name, err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v, body %d bytes",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		ms, err := davproto.ParseMultistatus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: body no longer parses: %v\n%s", tc.name, err, body)
		}
		status := map[string]int{}
		for _, ps := range ms.Responses[0].Propstats {
			for _, p := range ps.Props {
				status[p.Name().Local] = ps.Status
			}
		}
		if status["alpha"] != 200 || status["charlie"] != 200 || status["bravo"] != tc.bravo {
			t.Errorf("%s: statuses %v, want alpha and charlie 200, bravo %d", tc.name, status, tc.bravo)
		}
		for n, v := range stored {
			if !bytes.Contains(body, v) {
				t.Errorf("%s: stored value of %s is not in the body verbatim: %s", tc.name, n, v)
			}
		}
		if n := logLines(log); n != 1 || !strings.Contains(log.String(), "bravo") {
			t.Errorf("%s: want one log line naming bravo, got %d:\n%s", tc.name, n, log)
		}
	}
}

// The Depth-1 twin of TestPropfindSurvivesDamagedStoredValue: a member
// comes from ListWithProps, whose view carries the store's verdict on
// its values. A view holding a value that is not a fragment carries
// none, so the damaged property is still caught, logged and left out on
// every request, the first that builds the view and the ones that reuse
// it, while its neighbours are spliced verbatim.
func TestPropfindSurvivesDamagedMemberValue(t *testing.T) {
	srv, h, root, log := newLoggedFSServer(t, dbm.GDBM, "")
	do(t, "MKCOL", srv.URL+"/col", nil, "")
	do(t, "PUT", srv.URL+"/col/doc", nil, "x")
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/col/doc", nil, proppatchBodyPairs(
		[2]string{"alpha", "first value"}, [2]string{"bravo", "second-value-to-damage"}, [2]string{"charlie", "third & last"})), 207)
	stored := map[string][]byte{}
	for _, n := range []string{"alpha", "charlie"} {
		_, props, err := h.store.StatWithProps(context.Background(), "/col/doc")
		v, ok := props[xml.Name{Space: "ecce:", Local: n}]
		if err != nil || !ok {
			t.Fatalf("stored %s: %v %v", n, ok, err)
		}
		stored[n] = v
	}

	file := propsFileOf(t, root, "doc")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("second-value-to-damage"))
	if at < 0 {
		t.Fatal("stored value not found in the database file")
	}
	f, err := os.OpenFile(file, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("<"), int64(at+6)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dropCachedHandle(t, h, "/col/doc")

	for _, tc := range []struct {
		name, body string
		bravo      int // propstat status bravo is reported under; 0 = not listed
	}{
		{"named", propfindBody("alpha", "bravo", "charlie"), 404},
		{"allprop", "", 0},
		{"named again", propfindBody("alpha", "bravo", "charlie"), 404},
		{"allprop again", "", 0},
	} {
		log.Reset()
		resp := do(t, "PROPFIND", srv.URL+"/col", map[string]string{"Depth": "1"}, tc.body)
		wantStatus(t, resp, 207)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading body: %v", tc.name, err)
		}
		ms, err := davproto.ParseMultistatus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: body no longer parses: %v\n%s", tc.name, err, body)
		}
		status := map[string]int{}
		for _, r := range ms.Responses {
			if r.Href != "/col/doc" {
				continue
			}
			for _, ps := range r.Propstats {
				for _, p := range ps.Props {
					status[p.Name().Local] = ps.Status
				}
			}
		}
		if status["alpha"] != 200 || status["charlie"] != 200 || status["bravo"] != tc.bravo {
			t.Errorf("%s: statuses of /col/doc %v, want alpha and charlie 200, bravo %d", tc.name, status, tc.bravo)
		}
		for n, v := range stored {
			if !bytes.Contains(body, v) {
				t.Errorf("%s: stored value of %s is not in the body verbatim: %s", tc.name, n, v)
			}
		}
		if n := logLines(log); n != 1 || !strings.Contains(log.String(), "bravo") {
			t.Errorf("%s: want one log line naming bravo, got %d:\n%s", tc.name, n, log)
		}
	}
}

// A property database that cannot be read must fail the PROPFIND, not
// answer 207 with the dead properties quietly missing: the store used
// to drop the scan's error on this path while PropAll reported it.
func TestPropfindFailsOnUnreadablePropertyDatabase(t *testing.T) {
	for _, flavour := range []dbm.Flavour{dbm.GDBM, dbm.SDBM} {
		t.Run(flavour.String(), func(t *testing.T) {
			srv, h, root, log := newLoggedFSServer(t, flavour, "")
			do(t, "MKCOL", srv.URL+"/col", nil, "")
			do(t, "PUT", srv.URL+"/col/doc", nil, "x")
			wantStatus(t, do(t, "PROPPATCH", srv.URL+"/col/doc", nil,
				proppatchBody(map[string]string{"k": "v"})), 207)
			wantStatus(t, do(t, "PROPFIND", srv.URL+"/col", map[string]string{"Depth": "1"}, ""), 207)

			// Cut the file inside its only dead-property record.
			file := propsFileOf(t, root, "doc")
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(file, int64(bytes.Index(data, []byte("<ns0:k"))+3)); err != nil {
				t.Fatal(err)
			}
			if err := dbm.Verify(file); !errors.Is(err, dbm.ErrCorrupt) {
				t.Errorf("Verify of the truncated file = %v, want ErrCorrupt with the handle still cached", err)
			}
			dropCachedHandle(t, h, "/col/doc")

			if _, _, err := h.store.StatWithProps(context.Background(), "/col/doc"); err == nil {
				t.Fatal("StatWithProps reads the truncated database without error; the test damages nothing")
			}
			for _, rq := range []struct{ path, depth string }{
				{"/col/doc", "0"}, {"/col", "1"}, {"/col", "infinity"},
			} {
				resp := do(t, "PROPFIND", srv.URL+rq.path, map[string]string{"Depth": rq.depth}, "")
				if resp.StatusCode < 500 {
					b, _ := io.ReadAll(resp.Body)
					t.Errorf("PROPFIND %s Depth %s = %d, want 5xx\n%s", rq.path, rq.depth, resp.StatusCode, b)
				}
			}
			if !strings.Contains(log.String(), "corrupt") {
				t.Errorf("error log does not say why:\n%s", log)
			}
		})
	}
}

// PROPFIND reads each property database through a decoded view kept
// until the database's next write. Under concurrent PROPPATCHes, PUTs and
// Depth-1 PROPFINDs of one collection, over a server Build assembled, no
// reader may see a stale view:
//   - every value a reader sees was written by someone;
//   - a writer's PROPFIND after its PROPPATCH returned sees every value it
//     last wrote (each writer owns one property on every document);
//   - a PUT overwrite changes that document's getetag in the next
//     PROPFIND even when size and mtime stay the same: the generation
//     lives in the view;
//   - GET and HEAD, which read the same view, answer that getetag, and
//     a reader's GET and HEAD of a document under writes always carry
//     an ETag.
func TestPropfindViewsFollowEveryWrite(t *testing.T) {
	const writers, readers, docs, rounds = 3, 3, 4, 24
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	dav, _, _ := serveBuilt(t, cfg)
	client := func() *davclient.Client {
		c, err := davclient.New(davclient.Config{BaseURL: dav.URL, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	setup := client()
	if err := setup.Mkcol("/c"); err != nil {
		t.Fatal(err)
	}
	doc := func(j int) string { return fmt.Sprintf("/c/d%d", j) }
	for j := 0; j < docs; j++ {
		if _, err := setup.PutBytes(doc(j), []byte("body"), "text/plain"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := setup.PutBytes("/c/overwritten", []byte("same"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	owned := func(w int) xml.Name { return xml.Name{Space: "urn:w", Local: fmt.Sprintf("w%d", w)} }
	var names []xml.Name
	for w := 0; w < writers; w++ {
		names = append(names, owned(w))
	}
	var written sync.Map // every value any writer has sent, stored before it is sent
	headETag := func(p string) (string, error) {
		resp, err := http.Head(dav.URL + p)
		if err != nil {
			return "", err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("HEAD %s = %d", p, resp.StatusCode)
		}
		return resp.Header.Get("ETag"), nil
	}

	// valuesOf lists /c at Depth 1 for the properties asked: href → name → text.
	valuesOf := func(c *davclient.Client, ask ...xml.Name) (map[string]map[xml.Name]string, error) {
		ms, err := c.PropFindSelected("/c", davproto.Depth1, ask...)
		if err != nil {
			return nil, err
		}
		out := map[string]map[xml.Name]string{}
		for _, r := range ms.Responses {
			out[r.Href] = map[xml.Name]string{}
			for name, p := range davproto.PropsByName(r.Propstats) {
				out[r.Href][name] = p.Text()
			}
		}
		return out, nil
	}

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int, c *davclient.Client) {
			defer writing.Done()
			last := map[string]string{}
			for i := 0; i < rounds; i++ {
				href, v := doc(i%docs), fmt.Sprintf("w%d-%d", w, i)
				written.Store(v, true)
				if err := c.SetProps(href, davproto.NewTextProperty(owned(w).Space, owned(w).Local, v)); err != nil {
					t.Error(err)
					return
				}
				last[href] = v
				got, err := valuesOf(c, owned(w))
				if err != nil {
					t.Error(err)
					return
				}
				for href, want := range last {
					if got[href][owned(w)] != want {
						t.Errorf("writer %d: after its PROPPATCH, PROPFIND shows %s = %q, want %q", w, href, got[href][owned(w)], want)
						return
					}
				}
			}
		}(w, client())
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(c *davclient.Client) {
			defer reading.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := doc(i % docs)
				if i%2 == 1 {
					p = "/c/overwritten"
				}
				_, getTag, err := c.GetETag(p)
				if err != nil {
					t.Error(err)
					return
				}
				headTag, err := headETag(p)
				if err != nil {
					t.Error(err)
					return
				}
				if getTag == "" || headTag == "" {
					t.Errorf("reader: %s GET ETag %q, HEAD ETag %q; want both", p, getTag, headTag)
					return
				}
				got, err := valuesOf(c, names...)
				if err != nil {
					t.Error(err)
					return
				}
				for href, props := range got {
					for name, v := range props {
						if _, ok := written.Load(v); !ok {
							t.Errorf("reader: %s %s = %q, which nobody wrote", href, name.Local, v)
							return
						}
					}
				}
			}
		}(client())
	}
	writing.Add(1)
	go func(c *davclient.Client) {
		defer writing.Done()
		file := filepath.Join(fs.Root(), "c", "overwritten")
		stamp := time.Unix(1_000_000_000, 0)
		prev := ""
		for i := 0; i < rounds; i++ {
			if _, err := c.PutBytes("/c/overwritten", []byte("same"), "text/plain"); err != nil {
				t.Error(err)
				return
			}
			if err := os.Chtimes(file, stamp, stamp); err != nil {
				t.Error(err)
				return
			}
			got, err := valuesOf(c, davproto.PropGetETag)
			if err != nil {
				t.Error(err)
				return
			}
			etag := got["/c/overwritten"][davproto.PropGetETag]
			if etag == "" || etag == prev {
				t.Errorf("PUT overwrite %d: getetag %q, before it %q; want a new one", i, etag, prev)
				return
			}
			prev = etag
			_, getTag, err := c.GetETag("/c/overwritten")
			if err != nil {
				t.Error(err)
				return
			}
			headTag, err := headETag("/c/overwritten")
			if err != nil {
				t.Error(err)
				return
			}
			if getTag != etag || headTag != etag {
				t.Errorf("PUT overwrite %d: GET ETag %q, HEAD ETag %q; want the getetag %q", i, getTag, headTag, etag)
				return
			}
		}
	}(client())
	writing.Wait()
	close(done)
	reading.Wait()
}

// The versioning bookkeeping lives in dead properties whose stored
// bytes are not XML ("1"). It is private: never listed, 404 when asked
// for by name, and never a reason to write to the error log.
func TestPropfindHidesVersioningBookkeeping(t *testing.T) {
	srv, h, _, log := newLoggedFSServer(t, dbm.GDBM, "")
	do(t, "PUT", srv.URL+"/doc", nil, "v1")
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc", nil, proppatchBody(map[string]string{"k": "v"})), 207)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/doc", nil, ""), 200)

	named := string(davproto.MarshalPropfind(davproto.Propfind{Kind: davproto.PropfindProps,
		Props: []xml.Name{propVCControlled, propVCCount, {Space: "ecce:", Local: "k"}}}))
	propname := string(davproto.MarshalPropfind(davproto.Propfind{Kind: davproto.PropfindPropName}))
	for _, body := range []string{"", propname, named} {
		resp := do(t, "PROPFIND", srv.URL+"/doc", map[string]string{"Depth": "0"}, body)
		wantStatus(t, resp, 207)
		raw, _ := io.ReadAll(resp.Body)
		ms, err := davproto.ParseMultistatus(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range ms.Responses[0].Propstats {
			for _, p := range ps.Props {
				if p.Name().Space == vcNS && (body != named || ps.Status != 404) {
					t.Errorf("request %q: %v reported under status %d", body, p.Name(), ps.Status)
				}
			}
		}
		if body != named && bytes.Contains(raw, []byte(vcNS)) {
			t.Errorf("request %q: body mentions %s:\n%s", body, vcNS, raw)
		}
		if props := davproto.PropsByName(ms.Responses[0].Propstats); props[xml.Name{Space: "ecce:", Local: "k"}].Node() == nil {
			t.Errorf("request %q: the ordinary dead property is missing", body)
		}
	}
	if log.Len() != 0 {
		t.Errorf("error log not empty:\n%s", log)
	}
	if _, props, err := h.store.StatWithProps(context.Background(), "/doc"); err != nil || string(props[propVCCount]) != "1" {
		t.Errorf("stored version-count = %q, %v; want the bare bytes 1", props[propVCCount], err)
	}
}
