package davserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/davclient"
	"repro/internal/dbm"
	"repro/internal/store"
)

// stageStep is the step FSStore.Put stages a body in (store.stageBufSize).
const stageStep = 1 << 20

// TestOversizedPutPastAStagingStepIs413: a body of unknown length that
// passes MaxBodyBytes after the first full staging step is still
// answered 413, and leaves the old document and no temp file behind.
func TestOversizedPutPastAStagingStepIs413(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	cfg.MaxBodyBytes = stageStep + 7
	dav, _, _ := serveBuilt(t, cfg)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "the old body"), 201)

	// Hiding strings.Reader's Len leaves the request without a
	// Content-Length, so the limit is only met mid-body.
	body := struct{ io.Reader }{strings.NewReader(strings.Repeat("x", stageStep+8))}
	req, err := http.NewRequest(http.MethodPut, dav.URL+"/doc", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	resp = do(t, "GET", dav.URL+"/doc", nil, "")
	wantStatus(t, resp, 200)
	if b, _ := io.ReadAll(resp.Body); string(b) != "the old body" {
		t.Errorf("after the 413, GET /doc = %d bytes, want the old body", len(b))
	}
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && store.IsTmpName(fi.Name()) {
			t.Errorf("staging temp left behind: %s", p)
		}
		return nil
	})
}

// TestPooledBuffersNeverAlias: eight transfers at once, each PUT staged
// through the server's pooled buffer and each GET read through the
// client's, on one shared client. A buffer handed back to its pool while
// still in use would put one document's bytes into another.
func TestPooledBuffersNeverAlias(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	dav, _, _ := serveBuilt(t, cfg)
	c, err := davclient.New(davclient.Config{BaseURL: dav.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, 3*stageStep+7)
			rand.New(rand.NewSource(int64(i))).Read(body)
			p := fmt.Sprintf("/doc%d", i)
			if _, err := c.PutBytes(p, body, "application/octet-stream"); err != nil {
				t.Error(err)
				return
			}
			var got bytes.Buffer
			// The wrapper hides ReadFrom, so GetTo copies through its pool.
			if _, err := c.GetTo(p, struct{ io.Writer }{&got}); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Bytes(), body) {
				t.Errorf("%s came back as %d other bytes", p, got.Len())
			}
		}()
	}
	wg.Wait()
}
