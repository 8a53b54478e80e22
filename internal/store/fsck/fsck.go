// Package fsck verifies — and with Repair, restores — the on-disk
// invariants of an FSStore, the way a filesystem fsck does for a
// filesystem. The store's mod_dav layout keeps a document's state in
// three places (content file, property-database sidecar, generation
// counter), and the invariants tie them together:
//
//   - every property sidecar belongs to a live resource (no orphans);
//   - every property database is structurally sound (dbm.Verify) and
//     of the store's flavour;
//   - a persisted generation is a positive integer;
//   - no stranded staging temporaries (".put-*", "*.compact");
//   - no dangling journal intents (unfinished multi-step operations).
//
// Check reports violations without touching the store. Repair reuses
// the store's own crash recovery code for the journal and temp-file
// findings, removes orphaned sidecars, quarantines corrupt or
// wrong-flavour databases as "<name>.corrupt" (the bytes stay for the
// operator; the invariant is restored), and deletes unparseable
// generation keys (the next overwrite re-seeds the counter; one ETag
// generation is lost, torn metadata is not).
package fsck

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dbm"
	"repro/internal/obs/trace"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// Finding kinds.
const (
	KindStrandedTmp     = "stranded-tmp"
	KindOrphanProps     = "orphan-props"
	KindCorruptDBM      = "corrupt-dbm"
	KindFlavourMismatch = "flavour-mismatch"
	KindBadGeneration   = "bad-generation"
	KindDanglingIntent  = "dangling-intent"
)

// Finding is one invariant violation.
type Finding struct {
	Kind   string // one of the Kind* constants
	Path   string // disk path of the offending file (or journal path)
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s %s: %s", f.Kind, f.Path, f.Detail)
}

// Report is the result of one Check or Repair pass.
type Report struct {
	Findings  []Finding
	Resources int // resources walked (documents + collections)
	Databases int // property databases examined
	Repaired  int // findings fixed (Repair only)
}

// Clean reports whether no violations remain.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Check walks the store rooted at root and reports every invariant
// violation. It never mutates the store — safe on a quiescent store
// another process owns.
func Check(root string, flavour dbm.Flavour) (rep *Report, err error) {
	return CheckContext(context.Background(), root, flavour)
}

// CheckContext is Check bound to a trace context ("store.fsck" span).
func CheckContext(ctx context.Context, root string, flavour dbm.Flavour) (rep *Report, err error) {
	_, end := trace.Region(ctx, "store.fsck", trace.Str("root", root))
	defer func() { end(err) }()
	rep = &Report{}
	if err := checkTree(ctx, root, flavour, rep); err != nil {
		return nil, err
	}
	if err := checkJournal(root, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkTree walks the resource tree, descending into each metadata
// directory exactly once. The walk checks ctx between entries: a store
// holding thousands of sidecar databases takes a while to verify, and
// an abandoned check should stop burning I/O (checking is read-only,
// so stopping leaves nothing behind).
func checkTree(ctx context.Context, root string, flavour dbm.Flavour, rep *Report) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if d.IsDir() {
			if d.Name() == store.MetaDirName {
				checkMetaDir(ctx, root, p, flavour, rep)
				return filepath.SkipDir
			}
			rep.Resources++
			return nil
		}
		if store.IsTmpName(d.Name()) {
			rep.add(KindStrandedTmp, p, "staging temporary with no live operation")
			return nil
		}
		rep.Resources++
		return nil
	})
}

// checkMetaDir examines one ".DAV" directory: every member sidecar
// must have a live owner, and every database must be sound.
func checkMetaDir(ctx context.Context, root, metaDir string, flavour dbm.Flavour, rep *Report) {
	resourceDir := filepath.Dir(metaDir)
	ents, err := os.ReadDir(metaDir)
	if err != nil {
		rep.add(KindCorruptDBM, metaDir, fmt.Sprintf("unreadable metadata directory: %v", err))
		return
	}
	isRootMeta := resourceDir == root
	for _, e := range ents {
		p := filepath.Join(metaDir, e.Name())
		if store.IsTmpName(e.Name()) {
			rep.add(KindStrandedTmp, p, "staging temporary with no live operation")
			continue
		}
		if isRootMeta && e.Name() == store.JournalFileName {
			continue // checked separately
		}
		if !strings.HasSuffix(e.Name(), store.PropsExt) {
			continue // quarantined *.corrupt files and the like
		}
		base := strings.TrimSuffix(e.Name(), store.PropsExt)
		if base != store.CollectionPropsBase {
			// A member sidecar: its owner must be a live document.
			fi, err := os.Stat(filepath.Join(resourceDir, base))
			if err != nil || fi.IsDir() {
				rep.add(KindOrphanProps, p, "property database with no live document")
				continue
			}
		}
		checkDB(ctx, p, flavour, rep)
	}
}

// checkDB validates one property database: flavour, structure, and
// the generation key when present.
func checkDB(ctx context.Context, p string, flavour dbm.Flavour, rep *Report) {
	rep.Databases++
	got, err := dbm.FlavourOf(p)
	if err != nil {
		rep.add(KindCorruptDBM, p, err.Error())
		return
	}
	if got != flavour {
		rep.add(KindFlavourMismatch, p,
			fmt.Sprintf("database is %s, store is %s", got, flavour))
		return
	}
	if err := dbm.VerifyContext(ctx, p); err != nil {
		rep.add(KindCorruptDBM, p, err.Error())
		return
	}
	db, err := dbm.Open(p, flavour)
	if err != nil {
		rep.add(KindCorruptDBM, p, err.Error())
		return
	}
	defer db.Close()
	if v, ok, err := db.Get(store.GenerationKey()); err == nil && ok {
		gen, perr := strconv.ParseInt(string(v), 10, 64)
		if perr != nil || gen <= 0 {
			rep.add(KindBadGeneration, p,
				fmt.Sprintf("generation %q is not a positive integer", v))
		}
	}
}

// checkJournal reports every unresolved intent in the store's journal.
func checkJournal(root string, rep *Report) error {
	jp := filepath.Join(root, store.MetaDirName, store.JournalFileName)
	pending, err := journal.ReadPending(jp)
	if err != nil {
		return err
	}
	for _, rec := range pending {
		rep.add(KindDanglingIntent, jp, rec.String())
	}
	return nil
}

func (r *Report) add(kind, path, detail string) {
	r.Findings = append(r.Findings, Finding{Kind: kind, Path: path, Detail: detail})
}

// Repair fixes every finding Check would report: dangling intents and
// stranded temporaries go through the store's own crash recovery,
// orphaned sidecars are removed, corrupt or wrong-flavour databases
// are quarantined as "<name>.corrupt", and unparseable generations are
// deleted. Returns the final report — its Findings are whatever could
// not be fixed (empty on success), and Repaired counts the fixes.
func Repair(root string, flavour dbm.Flavour) (*Report, error) {
	return RepairContext(context.Background(), root, flavour)
}

// RepairContext is Repair bound to a trace context.
func RepairContext(ctx context.Context, root string, flavour dbm.Flavour) (rep *Report, err error) {
	_, end := trace.Region(ctx, "store.fsck.repair", trace.Str("root", root))
	defer func() { end(err) }()

	before, err := CheckContext(ctx, root, flavour)
	if err != nil {
		return nil, err
	}

	// Phase 1: the store's own recovery resolves dangling intents and
	// sweeps stranded temporaries — the exact code a crashed server
	// runs at startup, not a reimplementation.
	s, err := store.NewFSStoreWith(root, flavour, store.FSOptions{DeferRecovery: true})
	if err != nil {
		return nil, err
	}
	_, rerr := s.Recover()
	s.Close()
	if rerr != nil {
		return nil, fmt.Errorf("fsck: recovery phase: %w", rerr)
	}

	// Phase 2: findings recovery does not cover.
	repaired := 0
	for _, f := range before.Findings {
		switch f.Kind {
		case KindOrphanProps:
			if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("fsck: removing orphan %s: %w", f.Path, err)
			}
		case KindCorruptDBM, KindFlavourMismatch:
			if err := os.Rename(f.Path, f.Path+".corrupt"); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("fsck: quarantining %s: %w", f.Path, err)
			}
		case KindBadGeneration:
			if err := dropGeneration(f.Path, flavour); err != nil {
				return nil, fmt.Errorf("fsck: clearing generation in %s: %w", f.Path, err)
			}
		}
	}

	// Re-check: anything still found genuinely resisted repair.
	rep, err = CheckContext(ctx, root, flavour)
	if err != nil {
		return nil, err
	}
	repaired = len(before.Findings) - len(rep.Findings)
	if repaired < 0 {
		repaired = 0
	}
	rep.Repaired = repaired
	return rep, nil
}

func dropGeneration(path string, flavour dbm.Flavour) error {
	db, err := dbm.Open(path, flavour)
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Delete(store.GenerationKey()); err != nil {
		return err
	}
	return db.Sync()
}
