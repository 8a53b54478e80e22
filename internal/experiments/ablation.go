package experiments

import (
	"encoding/xml"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/davproto"
)

// RunSearchAblation compares the future-work features against their
// baselines on the Table 1 workload: server-side DASL SEARCH vs the
// client-side PROPFIND walk, and DAVStorage's kept bodies vs plain GETs
// of the paper's largest (1.8 MB) output property.
func RunSearchAblation() (*bench.Table, error) {
	env, err := StartDAVEnv(DAVEnvOptions{Persistent: true})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	c := env.Client

	// Workload: 50 documents x 50 x 1 KB properties, 5 of them tagged.
	if err := c.Mkcol("/data"); err != nil {
		return nil, err
	}
	value := make([]byte, 1024)
	for i := range value {
		value[i] = 'm'
	}
	for d := 0; d < 50; d++ {
		docPath := fmt.Sprintf("/data/doc%02d", d)
		if _, err := c.PutBytes(docPath, []byte("body"), "text/plain"); err != nil {
			return nil, err
		}
		props := make([]davproto.Property, 50)
		for p := range props {
			props[p] = davproto.NewTextProperty("ecce:", fmt.Sprintf("prop%02d", p), string(value))
		}
		if err := c.SetProps(docPath, props...); err != nil {
			return nil, err
		}
	}
	tag := xml.Name{Space: "ecce:", Local: "tagged"}
	for d := 0; d < 50; d += 10 {
		if err := c.SetProps(fmt.Sprintf("/data/doc%02d", d),
			davproto.NewTextProperty(tag.Space, tag.Local, "yes")); err != nil {
			return nil, err
		}
	}

	t := bench.NewTable("Ablation: future-work features vs their baselines",
		"operation", "elapsed", "cpu")
	t.Note = "50 documents; 5 carry the searched tag; cache reads fetch a 1.8 MB document"

	// SEARCH vs walk.
	timing, err := bench.Measure(func() error {
		ms, err := c.Search(davproto.BasicSearch{
			Select: []xml.Name{tag}, Scope: "/data", Depth: davproto.DepthInfinity,
			Where: davproto.IsDefinedExpr{Prop: tag},
		})
		if err != nil {
			return err
		}
		if len(ms.Responses) != 5 {
			return fmt.Errorf("search hits = %d", len(ms.Responses))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("DASL SEARCH for tagged documents (5 hits)",
		bench.Seconds(timing.Elapsed), bench.Seconds(timing.CPU))

	timing, err = bench.Measure(func() error {
		ms, err := c.PropFindSelected("/data", davproto.DepthInfinity, tag)
		if err != nil {
			return err
		}
		hits := 0
		for _, r := range ms.Responses {
			if _, ok := davproto.PropsByName(r.Propstats)[tag]; ok {
				hits++
			}
		}
		if hits != 5 {
			return fmt.Errorf("walk hits = %d", hits)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("PROPFIND walk + client filter (51 responses)",
		bench.Seconds(timing.Elapsed), bench.Seconds(timing.CPU))

	// Kept bodies vs plain GETs of a 1.8 MB document, 20 reads.
	big := make([]byte, 1800*1024)
	if err := c.Mkcol("/raw"); err != nil {
		return nil, err
	}
	if _, err := c.PutBytes("/raw/big", big, ""); err != nil {
		return nil, err
	}
	const reads = 20
	timing, err = bench.Measure(func() error {
		for i := 0; i < reads; i++ {
			if _, err := c.Get("/raw/big"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("%d plain GETs of a 1.8 MB document", reads),
		bench.Seconds(timing.Elapsed), bench.Seconds(timing.CPU))

	s := core.NewDAVStorage(c)
	done, err := s.Prefetch("/raw")
	if err != nil {
		return nil, err
	}
	defer done()
	if _, err := s.LoadRawFile("/raw", "big"); err != nil { // keeps the body
		return nil, err
	}
	timing, err = bench.Measure(func() error {
		for i := 0; i < reads; i++ {
			if _, err := s.LoadRawFile("/raw", "big"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("%d LoadRawFile reads under a Prefetch view (kept body)", reads),
		bench.Seconds(timing.Elapsed), bench.Seconds(timing.CPU))
	return t, nil
}
