// Command eccemigrate converts an Ecce repository from the OODB
// baseline to a WebDAV server (Section 3.2.4), verifying the copy and
// reporting what moved.
//
// Usage:
//
//	eccemigrate -oodb 127.0.0.1:9090 -dav http://127.0.0.1:8080 [-verify]
//
// For a self-contained demonstration (no external servers), see
// examples/migration.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/davclient"
	"repro/internal/migrate"
	"repro/internal/oodb"
)

func main() {
	var (
		oodbAddr = flag.String("oodb", "127.0.0.1:9090", "source OODB server address")
		davURL   = flag.String("dav", "http://127.0.0.1:8080", "destination DAV base URL")
		user     = flag.String("user", "", "DAV basic-auth user")
		pass     = flag.String("pass", "", "DAV basic-auth password")
		verify   = flag.Bool("verify", true, "verify the destination after migrating")
		root     = flag.String("root", "/", "subtree to migrate")
	)
	flag.Parse()

	oc, err := oodb.Dial(*oodbAddr, core.SchemaFingerprint())
	if err != nil {
		log.Fatalf("eccemigrate: connect OODB: %v", err)
	}
	src, err := core.NewOODBStorage(oc)
	if err != nil {
		log.Fatalf("eccemigrate: %v", err)
	}
	defer src.Close()

	// A davd that has just started answers writes 503 + Retry-After
	// until its crash-recovery pass ends; a migration waits that out
	// rather than failing on its first MKCOL.
	dc, err := davclient.New(davclient.Config{
		BaseURL: *davURL, Username: *user, Password: *pass,
		Persistent: true, Timeout: 10 * time.Minute,
		Retry: davclient.DefaultRetryPolicy(),
	})
	if err != nil {
		log.Fatalf("eccemigrate: connect DAV: %v", err)
	}
	dst := core.NewDAVStorage(dc)
	defer dst.Close()

	start := time.Now()
	rep, err := migrate.Migrate(src, dst, *root)
	if err != nil {
		log.Fatalf("eccemigrate: %v", err)
	}
	fmt.Printf("migrated %s in %.2fs\n", rep, time.Since(start).Seconds())

	srcStats, err := src.Client().Stat()
	if err == nil {
		fmt.Printf("source OODB: %d objects, %d bytes on disk (hidden segments included)\n",
			srcStats.Objects, srcStats.FileBytes)
	}

	if *verify {
		start = time.Now()
		if err := migrate.Verify(src, dst, *root); err != nil {
			log.Fatalf("eccemigrate: VERIFY FAILED: %v", err)
		}
		fmt.Printf("verified in %.2fs: destination matches source\n", time.Since(start).Seconds())
	}
}
