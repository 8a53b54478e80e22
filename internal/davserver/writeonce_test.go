package davserver

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store"
)

// ioCounters reads the bytes this process has passed to read and write
// system calls (rchar and wchar in /proc/self/io).
func ioCounters(t *testing.T) (rchar, wchar int64) {
	t.Helper()
	f, err := os.Open("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O counters: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), ": ")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "rchar":
			rchar = n
		case "wchar":
			wchar = n
		}
	}
	return rchar, wchar
}

// TestBodiesAreWrittenOnce counts the bytes davd's process writes: a
// versioned overwrite writes its body once (the version links it), and
// a Depth-infinity COPY writes and reads no body at all (each copied
// document is a link). The requests are served in process, so no
// socket write counts. Not parallel: the counters are the process's.
func TestBodiesAreWrittenOnce(t *testing.T) {
	s, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, nil)
	serve := func(method, p string, hdr map[string]string, body []byte) {
		t.Helper()
		req := httptest.NewRequest(method, p, bytes.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			t.Fatalf("%s %s = %d %s", method, p, rec.Code, rec.Body)
		}
	}

	const big = 8 << 20
	serve(http.MethodPut, "/d", nil, bytes.Repeat([]byte("v"), big))
	serve("VERSION-CONTROL", "/d", nil, nil)
	body := bytes.Repeat([]byte("w"), big)
	_, w0 := ioCounters(t)
	serve(http.MethodPut, "/d", nil, body)
	_, w1 := ioCounters(t)
	t.Logf("versioned PUT wrote %d", w1-w0)
	if wrote := w1 - w0; float64(wrote) > 1.1*big {
		t.Errorf("a versioned %d-byte overwrite wrote %d bytes (%.2fx)", big, wrote, float64(wrote)/big)
	}

	serve("MKCOL", "/c", nil, nil)
	serve(http.MethodPut, "/c/deck.nw", nil, bytes.Repeat([]byte("d"), 4<<10))
	serve(http.MethodPut, "/c/out.log", nil, bytes.Repeat([]byte("o"), 64<<10))
	r0, w0 := ioCounters(t)
	serve("COPY", "/c", map[string]string{"Destination": "/c2", "Depth": "infinity"}, nil)
	r1, w1 := ioCounters(t)
	t.Logf("COPY wrote %d read %d", w1-w0, r1-r0)
	if wrote := w1 - w0; wrote >= 64<<10 {
		t.Errorf("a COPY of 68 KiB of documents wrote %d bytes", wrote)
	}
	if read := r1 - r0; read >= 64<<10 {
		t.Errorf("a COPY of 68 KiB of documents read %d bytes", read)
	}
}
