package davproto

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/xmldom"
)

// Schema mappings. The paper's Discussion section proposes that
// "developers can encode the mapping between their object schemas
// external to their applications in a dynamically evolvable form" —
// a mapping document, stored in the DAV repository itself, that
// translates one application's property names into another's. A
// client applies a mapping to multistatus responses, so an application
// built against schema A reads data written under schema B without
// either application changing.
//
// The mapping document format (self-describing, like everything else
// in the store):
//
//	<m:mapping xmlns:m="urn:repro-dav:mapping">
//	  <m:rule>
//	    <m:from ns="http://www.xml-cml.org/schema" local="formula"/>
//	    <m:to   ns="ecce:" local="formula"/>
//	  </m:rule>
//	  ...
//	</m:mapping>

// MappingNS is the namespace of mapping documents.
const MappingNS = "urn:repro-dav:mapping"

// MappingRule renames one property.
type MappingRule struct {
	From xml.Name
	To   xml.Name
}

// Mapping is an ordered rule list. Rules apply in both query and
// response direction: query names are mapped From→To before the
// request (the store speaks the To schema), responses To→From after.
type Mapping struct {
	Rules []MappingRule
}

// Lookup returns the To name for a From name.
func (m *Mapping) Lookup(from xml.Name) (xml.Name, bool) {
	for _, r := range m.Rules {
		if r.From == from {
			return r.To, true
		}
	}
	return xml.Name{}, false
}

// Reverse returns the From name for a To name.
func (m *Mapping) Reverse(to xml.Name) (xml.Name, bool) {
	for _, r := range m.Rules {
		if r.To == to {
			return r.From, true
		}
	}
	return xml.Name{}, false
}

// TranslateMultistatus rewrites property names To→From in a response,
// so the caller sees its own schema. Property values and structure are
// preserved; only the outermost element name changes.
func (m *Mapping) TranslateMultistatus(ms Multistatus) Multistatus {
	out := Multistatus{Responses: make([]Response, len(ms.Responses))}
	for i, r := range ms.Responses {
		nr := Response{Href: r.Href, Status: r.Status,
			Propstats: make([]Propstat, len(r.Propstats))}
		for j, ps := range r.Propstats {
			nps := Propstat{Status: ps.Status, Props: make([]Property, len(ps.Props))}
			for k, p := range ps.Props {
				if from, ok := m.Reverse(p.Name()); ok {
					clone := p.XML.Clone()
					clone.Name = from
					nps.Props[k] = Property{XML: clone}
				} else {
					nps.Props[k] = p
				}
			}
			nr.Propstats[j] = nps
		}
		out.Responses[i] = nr
	}
	return out
}

// Marshal renders the mapping document.
func (m *Mapping) Marshal() []byte {
	root := xmldom.NewElement(MappingNS, "mapping")
	for _, r := range m.Rules {
		rule := root.Add(MappingNS, "rule")
		from := rule.Add(MappingNS, "from")
		from.SetAttr("", "ns", r.From.Space)
		from.SetAttr("", "local", r.From.Local)
		to := rule.Add(MappingNS, "to")
		to.SetAttr("", "ns", r.To.Space)
		to.SetAttr("", "local", r.To.Local)
	}
	return xmldom.MarshalDocument(root)
}

// ParseMapping reads a mapping document.
func ParseMapping(r io.Reader) (*Mapping, error) {
	root, err := xmldom.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("davproto: bad mapping document: %w", err)
	}
	if root.Name.Space != MappingNS || root.Name.Local != "mapping" {
		return nil, fmt.Errorf("davproto: expected {%s}mapping, got {%s}%s",
			MappingNS, root.Name.Space, root.Name.Local)
	}
	m := &Mapping{}
	for _, rule := range root.FindAll(MappingNS, "rule") {
		from, err := mappingEndpoint(rule, "from")
		if err != nil {
			return nil, err
		}
		to, err := mappingEndpoint(rule, "to")
		if err != nil {
			return nil, err
		}
		m.Rules = append(m.Rules, MappingRule{From: from, To: to})
	}
	if len(m.Rules) == 0 {
		return nil, fmt.Errorf("davproto: mapping document has no rules")
	}
	// Reject ambiguous mappings: duplicate From or duplicate To names
	// would make translation non-deterministic.
	seenFrom := map[xml.Name]bool{}
	seenTo := map[xml.Name]bool{}
	for _, r := range m.Rules {
		if seenFrom[r.From] {
			return nil, fmt.Errorf("davproto: duplicate mapping source {%s}%s", r.From.Space, r.From.Local)
		}
		if seenTo[r.To] {
			return nil, fmt.Errorf("davproto: duplicate mapping target {%s}%s", r.To.Space, r.To.Local)
		}
		seenFrom[r.From] = true
		seenTo[r.To] = true
	}
	return m, nil
}

// ParseMappingBytes parses a mapping held in memory.
func ParseMappingBytes(b []byte) (*Mapping, error) {
	return ParseMapping(strings.NewReader(string(b)))
}

func mappingEndpoint(rule *xmldom.Node, kind string) (xml.Name, error) {
	n := rule.Find(MappingNS, kind)
	if n == nil {
		return xml.Name{}, fmt.Errorf("davproto: mapping rule missing <%s>", kind)
	}
	ns, _ := n.Attr("", "ns")
	local, ok := n.Attr("", "local")
	if !ok || local == "" {
		return xml.Name{}, fmt.Errorf("davproto: mapping <%s> missing local attribute", kind)
	}
	return xml.Name{Space: ns, Local: local}, nil
}
