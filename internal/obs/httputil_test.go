package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// readerFromWriter is a ResponseWriter with its own ReadFrom, as
// net/http's is, that says whether it was used.
type readerFromWriter struct {
	*httptest.ResponseRecorder
	used bool
}

func (w *readerFromWriter) ReadFrom(src io.Reader) (int64, error) {
	w.used = true
	return io.Copy(w.ResponseRecorder, src)
}

// io.Copy into a ResponseRecorder reaches the wrapped writer's ReadFrom
// when it has one and plain Writes when it has not; either way the
// recorder counts the bytes and implies the 200.
func TestResponseRecorderReadFrom(t *testing.T) {
	body := strings.Repeat("x", 100<<10)
	with := &readerFromWriter{ResponseRecorder: httptest.NewRecorder()}
	without := httptest.NewRecorder()
	for _, tc := range []struct {
		name string
		w    http.ResponseWriter
		got  func() string
	}{
		{"wrapped writer has ReadFrom", with, func() string { return with.Body.String() }},
		{"wrapped writer has only Write", struct{ http.ResponseWriter }{without}, func() string { return without.Body.String() }},
	} {
		rr := NewResponseRecorder(tc.w)
		n, err := io.Copy(rr, io.LimitReader(strings.NewReader(body), int64(len(body))))
		if err != nil || n != int64(len(body)) || rr.Bytes() != n || rr.Status() != http.StatusOK || tc.got() != body {
			t.Errorf("%s: copied %d, %v; recorder saw %d bytes, status %d; body intact %v",
				tc.name, n, err, rr.Bytes(), rr.Status(), tc.got() == body)
		}
	}
	if !with.used {
		t.Error("the wrapped writer's ReadFrom was not used")
	}
}
