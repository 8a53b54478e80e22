package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A crash can leave the journal cut anywhere and followed by anything
// the disk had there. Whatever it holds, Open must replay exactly the
// whole records before the first bad line, cut the file back to them,
// and append after them, so an intent begun now survives the next
// reopen.
func FuzzJournalReplay(f *testing.F) {
	line := func(rec Record) []byte {
		payload, _ := json.Marshal(rec)
		return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	}
	valid := line(Record{Seq: 9, Kind: kindIntent, Op: OpDelete, Path: "/late"})
	f.Add([]byte{}, -1)
	f.Add([]byte{}, 0)
	f.Add([]byte("\n"), -1)
	f.Add([]byte("\r\n"), 1000)
	f.Add([]byte(`deadbeef {"seq":9,"kind":"int`), -1)
	f.Add(valid, -1)
	f.Add(valid[:len(valid)-1], -1)
	f.Add(valid, 60)
	f.Add(append(valid, valid...), 5)
	f.Fuzz(func(t *testing.T, tail []byte, cut int) {
		path := filepath.Join(t.TempDir(), "journal")
		j, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []Record{
			{Op: OpPut, Path: "/a", Tmp: ".put-1", Gen: 2, CType: "text/plain"},
			{Op: OpRename, Path: "/b", Dst: "/c", IsDir: true},
			{Op: OpCopy, Path: "/d", Dst: "/e", Recurse: true},
		} {
			if _, err := j.Begin(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Commit(2); err != nil {
			t.Fatal(err)
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cut >= 0 {
			data = data[:cut%(len(data)+1)]
		}
		data = append(data, tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := modelReplay(data)

		if rp, err := ReadPending(path); err != nil || !samePending(rp, want) {
			t.Fatalf("ReadPending of %q = %v, %v; want %v", data, rp, err, want)
		}
		j, err = Open(path)
		if err != nil {
			t.Fatalf("Open of %q: %v", data, err)
		}
		if got := j.Pending(); !samePending(got, want) {
			t.Fatalf("Pending of %q = %v, want %v", data, got, want)
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, data[:good]) {
			t.Fatalf("Open of %q left %q, want %q (%v)", data, kept, data[:good], err)
		}
		seq, err := j.Begin(Record{Op: OpMkcol, Path: "/after"})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		want = append(want, Record{Seq: seq, Kind: kindIntent, Op: OpMkcol, Path: "/after"})
		if got := j.Pending(); !samePending(got, want) {
			t.Fatalf("after a Begin on %q and a reopen, Pending = %v, want %v", data, got, want)
		}
	})
}

// modelReplay is the replay the package doc describes, over the bytes
// at once: whole '\n'-terminated lines that parse, up to the first that
// does not. It returns the pending intents in append order and the
// length of the prefix those lines make up.
func modelReplay(data []byte) (pending []Record, good int) {
	for {
		n := bytes.IndexByte(data[good:], '\n')
		if n < 0 {
			return pending, good
		}
		rec, ok := parseLine(data[good : good+n])
		if !ok {
			return pending, good
		}
		good += n + 1
		at := -1
		for i, p := range pending {
			if p.Seq == rec.Seq {
				at = i
			}
		}
		switch {
		case rec.Kind == kindIntent && at < 0:
			pending = append(pending, rec)
		case rec.Kind == kindCommit && at >= 0:
			pending = append(pending[:at], pending[at+1:]...)
		}
	}
}

func samePending(got, want []Record) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}
