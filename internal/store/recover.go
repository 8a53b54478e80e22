package store

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/dbm"
	"repro/internal/obs/trace"
	"repro/internal/store/journal"
	"repro/internal/store/pathlock"
)

// RecoverReport summarizes one recovery pass.
type RecoverReport struct {
	// Resolved is how many pending journal intents were examined.
	Resolved int
	// RolledForward counts intents completed to their post-state.
	RolledForward int
	// RolledBack counts intents undone to their pre-state.
	RolledBack int
	// SweptTmp counts stale staging temporaries removed.
	SweptTmp int
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// RecoveryStats is the cumulative recovery telemetry surfaced on
// /metrics as the dav_recovery_* family.
type RecoveryStats struct {
	Runs          int64
	RolledForward int64
	RolledBack    int64
	SweptTmp      int64
	LastDuration  time.Duration
	Recovering    bool
}

// RecoveryBacklog is the live progress of the current (or most recent)
// recovery pass: how many journal intents still await resolution, how
// many this pass has resolved so far, and how many stale temporaries
// the sweep has removed. /readyz embeds it while the store reports
// "recovering" so the drain is observable, not just the gate.
type RecoveryBacklog struct {
	PendingIntents  int `json:"pending_intents"`
	ResolvedIntents int `json:"resolved_intents"`
	SweptTmp        int `json:"swept_tmp"`
}

// RecoveryBacklog snapshots the in-flight recovery progress. Pending
// counts journal intents not yet resolved by the current pass (the
// journal itself only empties when the pass completes).
func (s *FSStore) RecoveryBacklog() RecoveryBacklog {
	sh := s.shared
	b := RecoveryBacklog{
		ResolvedIntents: int(sh.passResolved.Load()),
		SweptTmp:        int(sh.passSwept.Load()),
	}
	b.PendingIntents = max(sh.journal.Len()-b.ResolvedIntents, 0)
	return b
}

// RecoveryStats snapshots the store's cumulative recovery counters.
func (s *FSStore) RecoveryStats() RecoveryStats {
	sh := s.shared
	return RecoveryStats{
		Runs:          sh.recoverRuns.Load(),
		RolledForward: sh.rolledForward.Load(),
		RolledBack:    sh.rolledBack.Load(),
		SweptTmp:      sh.sweptTmp.Load(),
		LastDuration:  time.Duration(sh.lastRecoverNano.Load()),
		Recovering:    sh.recovering.Load(),
	}
}

// Recover resolves every pending journal intent — rolling each
// operation forward to its post-state or back to its pre-state per the
// rules documented on the mutating methods — then sweeps stale staging
// temporaries and lifts the write gate. It is idempotent: replaying an
// already-resolved intent converges to the same state, which is why
// commit records need no fsync of their own.
//
// Safe to run while reads are being served (each intent is resolved
// under the same exclusive path locks its operation would take);
// mutations stay rejected with ErrRecovering until it returns.
//
// Recovery is not request-scoped — an interrupted pass would leave the
// write gate closed forever — so it runs under its own background
// context rather than any caller's.
func (s *FSStore) Recover() (RecoverReport, error) {
	s.shared.recoverMu.Lock()
	defer s.shared.recoverMu.Unlock()
	ctx := context.Background()

	_, end := trace.Region(ctx, "store.recover", trace.Str("root", s.root))
	start := time.Now()
	var rep RecoverReport
	var firstErr error
	s.shared.passResolved.Store(0)
	s.shared.passSwept.Store(0)

	pending := s.shared.journal.Pending()
	rep.Resolved = len(pending)
	for _, rec := range pending {
		fwd, err := s.resolveIntent(ctx, rec)
		if err != nil {
			slog.Warn("store: recovery could not resolve intent",
				"intent", rec.String(), "err", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("resolving %s: %w", rec.String(), err)
			}
			continue
		}
		if fwd {
			rep.RolledForward++
		} else {
			rep.RolledBack++
		}
		s.shared.passResolved.Add(1)
		slog.Info("store: recovered unfinished operation",
			"intent", rec.String(), "rolled", direction(fwd))
	}
	if firstErr == nil {
		if err := s.shared.journal.Reset(); err != nil {
			firstErr = fmt.Errorf("resetting journal: %w", err)
		}
	}

	swept, err := s.sweepTmp()
	rep.SweptTmp = swept
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("sweeping temporaries: %w", err)
	}

	rep.Duration = time.Since(start)
	sh := s.shared
	sh.recoverRuns.Add(1)
	sh.rolledForward.Add(int64(rep.RolledForward))
	sh.rolledBack.Add(int64(rep.RolledBack))
	sh.sweptTmp.Add(int64(rep.SweptTmp))
	sh.lastRecoverNano.Store(int64(rep.Duration))
	if firstErr == nil {
		sh.recovering.Store(false)
	}
	end(firstErr)
	return rep, firstErr
}

func direction(forward bool) string {
	if forward {
		return "forward"
	}
	return "back"
}

// resolveIntent rolls one unfinished operation forward or back,
// reporting which way it went. Runs under the same exclusive path
// locks the original operation held.
func (s *FSStore) resolveIntent(ctx context.Context, rec journal.Record) (forward bool, err error) {
	switch rec.Op {
	case journal.OpPut:
		g, err := s.locks.Lock(ctx, rec.Path)
		if err != nil {
			return false, err
		}
		defer g.Release()
		return s.resolvePut(ctx, rec)
	case journal.OpDelete:
		g, err := s.locks.Lock(ctx, rec.Path)
		if err != nil {
			return false, err
		}
		defer g.Release()
		return true, s.resolveDelete(rec)
	case journal.OpRename:
		g, err := s.locks.Acquire(ctx,
			pathlock.Req{Path: rec.Path, Mode: pathlock.Exclusive},
			pathlock.Req{Path: rec.Dst, Mode: pathlock.Exclusive})
		if err != nil {
			return false, err
		}
		defer g.Release()
		return s.resolveRename(rec)
	case journal.OpCopy:
		g, err := s.locks.Lock(ctx, rec.Dst)
		if err != nil {
			return false, err
		}
		defer g.Release()
		s.removeCopyDebris(rec.Dst)
		return false, nil
	case journal.OpMkcol:
		// Mkcol journals nothing now; an earlier version of the store
		// wrote these. Both states are valid: a collection either
		// exists (the mkdir ran) or it does not (it never did), so
		// there is nothing to repair.
		dp, err := s.diskPath(rec.Path)
		if err != nil {
			return false, err
		}
		_, serr := os.Stat(dp)
		return serr == nil, nil
	default:
		return false, fmt.Errorf("unknown journaled op %q", rec.Op)
	}
}

// resolvePut finishes or undoes an interrupted Put. The staged temp
// file is the pivot: still present means the rename never happened
// (roll back by discarding it); gone means the content is live and the
// metadata steps — content-type write, generation bump — must be
// completed. The generation bump is made idempotent by the recorded
// pre-op generation: it is re-applied only if the current value has
// not moved past it.
func (s *FSStore) resolvePut(ctx context.Context, rec journal.Record) (bool, error) {
	dp, err := s.diskPath(rec.Path)
	if err != nil {
		return false, err
	}
	if rec.Tmp != "" {
		tmp := filepath.Join(filepath.Dir(dp), rec.Tmp)
		if _, serr := os.Stat(tmp); serr == nil {
			return false, os.Remove(tmp)
		}
	}
	if _, serr := os.Stat(dp); serr != nil {
		// Neither temp nor final file: the rename failed and the temp
		// was already discarded (only the commit record was lost).
		return false, nil
	}
	pp := s.memberPropsPath(dp, rec.Path)
	if err := s.persistContentType(ctx, rec.Path, pp, rec.CType); err != nil {
		return true, err
	}
	if !rec.Created {
		if err := s.withPropsAt(ctx, pp, true, func(h *dbm.Handle) error {
			var gen int64
			if v, ok, err := h.Get(internalKey(ikeyGeneration)); err != nil {
				return err
			} else if ok {
				gen, _ = strconv.ParseInt(string(v), 10, 64)
			}
			if gen > rec.Gen {
				return nil // bump already happened before the crash
			}
			return h.Put(internalKey(ikeyGeneration),
				[]byte(strconv.FormatInt(rec.Gen+1, 10)))
		}); err != nil {
			return true, err
		}
	}
	return true, nil
}

// resolveDelete completes an interrupted Delete: deletes always roll
// forward, so whatever remains of the resource — content, subtree,
// property sidecar — is removed.
func (s *FSStore) resolveDelete(rec journal.Record) error {
	dp, err := s.diskPath(rec.Path)
	if err != nil {
		return err
	}
	if rec.IsDir {
		if err := os.RemoveAll(dp); err != nil {
			return err
		}
		s.cache.InvalidatePrefix(dp)
		return nil
	}
	if err := os.Remove(dp); err != nil && !os.IsNotExist(err) {
		return err
	}
	pp := s.memberPropsPath(dp, rec.Path)
	if err := os.Remove(pp); err != nil && !os.IsNotExist(err) {
		s.cache.Invalidate(pp)
		return err
	}
	s.cache.Invalidate(pp)
	return nil
}

// resolveRename settles an interrupted Rename. The content rename is
// the decisive step: source still present means nothing happened (the
// intent resolves as a no-op roll-back); source gone means the rename
// landed and the document's property sidecar must finish moving
// alongside.
func (s *FSStore) resolveRename(rec journal.Record) (bool, error) {
	sp, err := s.diskPath(rec.Path)
	if err != nil {
		return false, err
	}
	tp, err := s.diskPath(rec.Dst)
	if err != nil {
		return false, err
	}
	if _, serr := os.Stat(sp); serr == nil {
		return false, nil
	}
	if rec.IsDir {
		s.cache.InvalidatePrefix(sp)
		return true, nil
	}
	spp := s.memberPropsPath(sp, rec.Path)
	if _, serr := os.Stat(spp); serr == nil {
		tpp := s.memberPropsPath(tp, rec.Dst)
		if err := os.MkdirAll(filepath.Dir(tpp), 0o755); err != nil {
			return true, err
		}
		if err := os.Rename(spp, tpp); err != nil {
			return true, err
		}
	}
	s.cache.Invalidate(spp)
	return true, nil
}

// sweepTmp walks the store removing stale staging temporaries — Put
// bodies that never got renamed (".put-*") and DBM compactions that
// never swapped in ("*.compact"). Safe by construction: live data
// never carries these names, and an in-flight operation's temp cannot
// be confused for a stale one because recovery runs behind the write
// gate.
func (s *FSStore) sweepTmp() (int, error) {
	swept := 0
	err := filepath.WalkDir(s.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !IsTmpName(d.Name()) {
			return nil
		}
		if rerr := os.Remove(p); rerr != nil {
			return rerr
		}
		slog.Info("store: swept stale temporary", "path", p)
		swept++
		s.shared.passSwept.Add(1)
		return nil
	})
	return swept, err
}
