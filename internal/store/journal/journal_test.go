package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestBeginCommitRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)

	seq1, err := j.Begin(Record{Op: OpPut, Path: "/a", Tmp: ".put-1", Gen: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := j.Begin(Record{Op: OpDelete, Path: "/b", IsDir: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("sequence not increasing: %d then %d", seq1, seq2)
	}
	if err := j.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	got := j.Pending()
	if len(got) != 1 || got[0].Seq != seq2 || got[0].Op != OpDelete || !got[0].IsDir {
		t.Fatalf("pending after commit = %+v", got)
	}
	j.Close()

	// Reopen: the uncommitted intent must survive, the committed one
	// must not.
	j2 := openT(t, path)
	got = j2.Pending()
	if len(got) != 1 || got[0].Path != "/b" {
		t.Fatalf("pending after reopen = %+v", got)
	}
	// New sequence numbers continue past the old ones.
	seq3, err := j2.Begin(Record{Op: OpMkcol, Path: "/c"})
	if err != nil {
		t.Fatal(err)
	}
	if seq3 <= seq2 {
		t.Fatalf("sequence regressed after reopen: %d then %d", seq2, seq3)
	}
}

func TestTornTailDiscardedAndTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)
	if _, err := j.Begin(Record{Op: OpPut, Path: "/keep"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a partial line with no newline and a
	// broken CRC.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":9,"kind":"int`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, path)
	got := j2.Pending()
	if len(got) != 1 || got[0].Path != "/keep" {
		t.Fatalf("pending after torn tail = %+v", got)
	}
	// The tear must have been truncated away so later appends don't
	// concatenate onto garbage.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "deadbeef") {
		t.Fatalf("torn tail still present:\n%s", data)
	}
}

func TestCorruptMiddleLineStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)
	s1, _ := j.Begin(Record{Op: OpPut, Path: "/first"})
	_ = s1
	if _, err := j.Begin(Record{Op: OpPut, Path: "/second"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a byte inside the first record's payload: replay must stop
	// there and drop everything after, never trusting records past a
	// corrupt one.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(data), "/first")
	data[idx+1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, path)
	if got := j2.Pending(); len(got) != 0 {
		t.Fatalf("pending after corrupt middle line = %+v", got)
	}
}

func TestRotationTruncatesIdleJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)
	for i := 0; i < rotateAfter; i++ {
		seq, err := j.Begin(Record{Op: OpMkcol, Path: "/x"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("journal not rotated: %d bytes after %d committed ops", fi.Size(), rotateAfter)
	}
	// Sequence numbers keep rising across the rotation.
	seq, err := j.Begin(Record{Op: OpMkcol, Path: "/y"})
	if err != nil {
		t.Fatal(err)
	}
	if seq < rotateAfter {
		t.Fatalf("sequence reset by rotation: %d", seq)
	}
}

func TestRotationWaitsForPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)
	hold, err := j.Begin(Record{Op: OpPut, Path: "/held"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rotateAfter; i++ {
		seq, err := j.Begin(Record{Op: OpMkcol, Path: "/x"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if fi, _ := os.Stat(path); fi.Size() == 0 {
		t.Fatal("journal rotated away a pending intent")
	}
	if got := j.Pending(); len(got) != 1 || got[0].Seq != hold {
		t.Fatalf("pending = %+v, want the held intent", got)
	}
	if err := j.Commit(hold); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatal("journal did not rotate once the held intent committed")
	}
}

// A record cut just before its newline still carries a valid CRC, but
// it is torn: Open must truncate it, or the next Begin fuses onto the
// same line and the replay after that loses both records.
func TestUnterminatedFinalRecordIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j := openT(t, path)
	if _, err := j.Begin(Record{Op: OpPut, Path: "/cut"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, path)
	if got := j2.Pending(); len(got) != 0 {
		t.Fatalf("pending after an unterminated record = %+v, want none", got)
	}
	if _, err := j2.Begin(Record{Op: OpMkcol, Path: "/after"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3 := openT(t, path)
	if got := j3.Pending(); len(got) != 1 || got[0].Path != "/after" {
		t.Fatalf("pending after the second reopen = %+v, want the intent begun after the first", got)
	}
	if rp, err := ReadPending(path); err != nil || len(rp) != 1 || rp[0].Path != "/after" {
		t.Fatalf("ReadPending = %+v, %v, want the intent begun after the first reopen", rp, err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"); len(lines) != 1 || !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("journal is not one line per record:\n%q", data)
	}
}
