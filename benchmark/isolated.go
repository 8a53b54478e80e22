package main

import (
	"bytes"
	"context"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store/journal"
	"repro/internal/xmldom"
)

// timeMin runs fn iters times, five rounds over, on one thread, and
// returns the best round's time per call in nanoseconds. Anything that
// disturbs a round only adds to it, so the minimum is the repeatable
// figure.
func timeMin(iters int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		best = math.Min(best, float64(time.Since(t0))/float64(iters))
	}
	return best
}

// runIsolated times single calls into xmldom, davproto, dbm, store and
// journal on what the traced run left behind: the largest multistatus
// body a client received, the largest stored property the store saw,
// and the site's own store. A workload that never produced an input
// (doc_transfer parses no XML) leaves those metrics at 0.
func runIsolated(env *inproc, w workload, diskDir string, short bool, v map[string]float64) error {
	scale := 1
	if short {
		scale = 10
	}
	iters := func(n int) int { return max(1, n/scale) }

	if body := env.rec.body; len(body) > 0 {
		n := iters(20)
		var root *xmldom.Node
		v["xmldom.parse_ms_per_body"] = timeMin(n, func() { root, _ = xmldom.ParseBytes(body) }) / 1e6
		v["xmldom.sax_ms_per_body"] = timeMin(n, func() {
			xmldom.ScanSAX(bytes.NewReader(body), xmldom.SAXHandler{})
		}) / 1e6
		if root != nil {
			v["xmldom.marshal_ms_per_body"] = timeMin(n, func() { xmldom.MarshalDocument(root) }) / 1e6
		}
		v["davproto.parse_multistatus_ms_per_body"] = timeMin(n, func() {
			davproto.ParseMultistatus(bytes.NewReader(body))
		}) / 1e6
	}
	if prop := env.rec.prop; len(prop) > 0 {
		v["davproto.decode_property_us"] = timeMin(iters(2000), func() { davproto.DecodeProperty(prop) }) / 1e3
	}

	if err := isolatedDBM(env, iters, v); err != nil {
		return err
	}

	ctx := context.Background()
	doc, dir := w.probePaths()
	v["store.stat_with_props_us"] = timeMin(iters(2000), func() { env.fs.StatWithProps(ctx, doc) }) / 1e3
	v["store.list_with_props_ms"] = timeMin(iters(50), func() { env.fs.ListWithProps(ctx, dir) }) / 1e6
	page := bytes.Repeat([]byte("x"), 4096)
	scratch := dir + "/isolated-put.tmp"
	v["store.put_4k_us"] = timeMin(iters(200), func() {
		env.fs.Put(ctx, scratch, bytes.NewReader(page), "application/octet-stream")
	}) / 1e3
	if err := env.fs.Delete(ctx, scratch); err != nil {
		return err
	}

	// The intent journal's Begin is the store's one mandatory fsync per
	// mutation. On the store's filesystem it is what the runs above
	// paid; on the checkout's disk it is what this sandbox's device
	// would add, reported once and kept out of every gated number.
	for name, where := range map[string]string{
		"journal.begin_commit_us":      env.dir,
		"journal.begin_commit_disk_us": diskDir,
	} {
		us, err := journalRoundTrip(where, iters(200))
		if err != nil {
			return err
		}
		v[name] = us
	}
	return nil
}

// isolatedDBM times the property-database calls on a copy of the
// largest database in the site's store.
func isolatedDBM(env *inproc, iters func(int) int, v map[string]float64) error {
	var biggest string
	var size int64
	err := filepath.WalkDir(env.fs.Root(), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".props") {
			return err
		}
		if fi, err := d.Info(); err == nil && fi.Size() > size {
			biggest, size = p, fi.Size()
		}
		return nil
	})
	if err != nil || biggest == "" {
		return err
	}
	work := filepath.Join(env.dir, "isolated.props")
	b, err := os.ReadFile(biggest)
	if err == nil {
		err = os.WriteFile(work, b, 0o644)
	}
	if err != nil {
		return err
	}
	defer os.Remove(work)

	v["dbm.open_us"] = timeMin(iters(500), func() {
		if db, err := dbm.Open(work, dbm.GDBM); err == nil {
			db.Close()
		}
	}) / 1e3
	db, err := dbm.Open(work, dbm.GDBM)
	if err != nil {
		return err
	}
	defer db.Close()
	keys, err := db.Keys()
	if err != nil || len(keys) == 0 {
		return err
	}
	key := []byte(keys[0])
	val, _, err := db.Get(key)
	if err != nil {
		return err
	}
	v["dbm.get_us"] = timeMin(iters(5000), func() { db.Get(key) }) / 1e3
	v["dbm.foreach_us_per_db"] = timeMin(iters(500), func() {
		db.ForEach(func(_, _ []byte) error { return nil })
	}) / 1e3
	v["dbm.put_us"] = timeMin(iters(500), func() { db.Put(key, val) }) / 1e3
	return nil
}

func journalRoundTrip(dir string, iters int) (us float64, err error) {
	path := filepath.Join(dir, "isolated.journal")
	j, err := journal.Open(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer j.Close()
	ns := timeMin(iters, func() {
		var seq uint64
		if seq, err = j.Begin(journal.Record{Op: journal.OpPut, Path: "/probe/doc.dat", Tmp: ".put-probe"}); err == nil {
			err = j.Commit(seq)
		}
	})
	return ns / 1e3, err
}
