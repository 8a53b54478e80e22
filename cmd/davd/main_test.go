package main

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/davserver"
)

// TestDefaultConfigMatchesFlags: DefaultConfig is the single source of
// davd's defaults — every flag defaults to its Config field, parsing no
// arguments changes nothing, and the flag set stays the 21 settings
// operators actually use.
func TestDefaultConfigMatchesFlags(t *testing.T) {
	def := davserver.DefaultConfig()
	fields := map[string]any{
		"addr": def.Addr, "root": def.Root, "flavour": def.Flavour, "dbm-cache": def.DBMCache,
		"users": def.Users, "prefix": def.Prefix, "max-prop-bytes": def.MaxPropBytes,
		"request-timeout": def.RequestTimeout, "store-op-timeout": def.StoreOpTimeout,
		"max-body-bytes": def.MaxBodyBytes, "shutdown-grace": def.ShutdownGrace, "admin": def.Admin,
		"no-access-log": def.NoAccessLog, "quiet": def.Quiet, "slow-threshold": def.SlowThreshold,
		"trace-out": def.TraceOut, "trace-sample": def.TraceSample, "slo": def.SLO,
		"admit-limit": def.AdmitLimit, "admit-queue": def.AdmitQueue,
		"brownout": def.Brownout,
	}

	cfg := davserver.DefaultConfig()
	fs := flag.NewFlagSet("davd", flag.ContinueOnError)
	bindFlags(fs, &cfg)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		want, ok := fields[f.Name]
		if !ok {
			t.Errorf("flag -%s has no DefaultConfig field in this test's table", f.Name)
		} else if f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s defaults to %q, DefaultConfig says %q", f.Name, f.DefValue, fmt.Sprint(want))
		}
	})
	if n != len(fields) || n > 21 {
		t.Errorf("davd has %d flags, want the %d in the table (at most 21)", n, len(fields))
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, def) {
		t.Errorf("parsing no arguments changed the config:\n got %+v\nwant %+v", cfg, def)
	}

	// Each flag writes the field it is named for.
	if err := fs.Parse([]string{"-dbm-cache", "7", "-slo", "", "-brownout", "-admit-queue", "3"}); err != nil {
		t.Fatal(err)
	}
	if cfg.DBMCache != 7 || cfg.SLO != "" || !cfg.Brownout || cfg.AdmitQueue != 3 {
		t.Errorf("flags did not land in their fields: %+v", cfg)
	}
}
