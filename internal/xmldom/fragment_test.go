package xmldom

import (
	"strings"
	"testing"
)

// fragmentCases is the check's decision table, and the seed corpus of
// FuzzWellFormedFragment beside the inputs under testdata/fuzz.
var fragmentCases = []struct {
	in   string
	want bool
}{
	{`<a/>`, true},
	{`<a></a>`, true},
	{`<ns0:k xmlns:ns0="urn:ecce">v &lt;&amp;&gt; &#34;&#39;&#x9;&#xA;&#xD;</ns0:k>`, true},
	{`<D:x xmlns:D="DAV:" xmlns:ns0="u" ns0:unit="&#34;Å&#34;"><ns0:y>1</ns0:y>tail</D:x>`, true},
	{`<ns0:größe xmlns:ns0="u">ü</ns0:größe>`, true},
	{`<a:/>`, true}, // encoding/xml reads a colon at the end as part of the name
	{`<a>]]&gt;</a>`, true},
	{`<a b="]]>"/>`, true},
	{`<a>&#xD800;</a>`, true}, // becomes U+FFFD
	{strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40), true},

	{``, false},
	{`not xml at all <<<`, false},
	{`<unclosed`, false},
	{`<a>`, false},
	{`<a></b>`, false},
	{`<a/><b/>`, false},
	{`<a/> `, false},
	{` <a/>`, false},
	{`<a ></a>`, false},
	{`<a  b="1"/>`, false},
	{`<a b='1'/>`, false},
	{`<a b="<"/>`, false},
	{`<a>]]></a>`, false},
	{`<a>&nbsp;</a>`, false},
	{`<a>&#0;</a>`, false},
	{`<a>&#x110000;</a>`, false},
	{`<a>&#;</a>`, false},
	{`<a>&lt</a>`, false},
	{"<a>\x01</a>", false},
	{"<a>\xff</a>", false},
	{`<a><!-- c --></a>`, false},
	{`<a><![CDATA[x]]></a>`, false},
	{`<?xml version="1.0"?><a/>`, false},
	{`<1a/>`, false},
	{`<a:b:c xmlns:a="u"/>`, false},
	{`<p:a/>`, false},                          // undeclared prefix
	{`<a xmlns:p="u"><b q:c="1"/></a>`, false}, // undeclared attribute prefix
	{`<a><p:b xmlns:p="u"/></a>`, false},       // declared, but not on the root
	{`<p:x a=" xmlns:p="/>`, false},            // looks declared only to a substring search
	{`<ns0:größe xmlns:ns0="u">ü</ns0:grösse>`, false},

	// Word edges: scanText skips eight plain bytes at a time from where
	// the text starts (after "<a>", or the opening quote), so these put
	// what it must stop for on either side of the eighth byte.
	{`<a>123456]]></a>`, false},
	{`<a>1234567]]></a>`, false},
	{`<a>12345678]]></a>`, false},
	{`<a b="1234567]]>"/>`, true},
	{`<a b="1234567<"/>`, false},
	{`<a b="12345678&quot;9"/>`, true},
	{`<a>1234567&amp;8</a>`, true},
	{`<a>12345678&lt9</a>`, false},
	{`<a>1234567"'8</a>`, true},
	{"<a>123\t4567890\n12345678\r\n9</a>", true},
	{"<a>1234567é89</a>", true},        // a two-byte character across the edge
	{"<a>123456€89</a>", true},         // a three-byte one
	{"<a>1234567\U0001d11e</a>", true}, // a four-byte one
	{"<a>1234567\xc3</a>", false},
	{"<a>12\x01345678</a>", false},
	{"<a>1234567\x7f89</a>", true},
	{"<\u00d7/>", false}, // U+00D7 is not a name character
}

func TestWellFormedFragment(t *testing.T) {
	for _, tc := range fragmentCases {
		if got := WellFormedFragment([]byte(tc.in)); got != tc.want {
			t.Errorf("WellFormedFragment(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if _, err := ParseString(tc.in); tc.want && err != nil {
			t.Errorf("accepted %q but ParseString fails: %v", tc.in, err)
		}
	}
}

func TestWellFormedFragmentDoesNotAllocate(t *testing.T) {
	b := []byte(`<ns0:k xmlns:ns0="urn:ecce" xmlns:ns1="v" ns1:a="&#34;x&#34;"><ns1:c>` +
		strings.Repeat("text &amp; more ", 64) + `</ns1:c></ns0:k>`)
	if !WellFormedFragment(b) {
		t.Fatal("rejected")
	}
	if n := testing.AllocsPerRun(100, func() { WellFormedFragment(b) }); n != 0 {
		t.Errorf("%v allocations per call, want 0", n)
	}
}

// FuzzWellFormedFragment holds the check to its contract on arbitrary
// bytes: what it accepts ParseBytes accepts, and means the same inside
// an enclosing element that happens to declare other prefixes; and on
// anything Marshal can emit it decides exactly as ParseBytes does.
func FuzzWellFormedFragment(f *testing.F) {
	for _, tc := range fragmentCases {
		f.Add([]byte(tc.in))
	}
	for _, s := range []string{ // ParseBytes takes these; Marshal's rewrite of some does not parse
		`<a: xmlns="x"/>`,
		`<p:1b xmlns:p=""><!-- c --><![CDATA[x]]></p:1b>`,
		`<a xml:lang="en" xmlns:q="xmlns" q:r="s">]]&gt;</a>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		root, err := ParseBytes(b)
		if WellFormedFragment(b) {
			if err != nil {
				t.Fatalf("accepted %q, ParseBytes: %v", b, err)
			}
			doc := append(append([]byte(`<D:prop xmlns:D="DAV:" xmlns:ns0="other">`), b...), `</D:prop>`...)
			env, err := ParseBytes(doc)
			if err != nil {
				t.Fatalf("accepted %q, spliced: %v", b, err)
			}
			if len(env.Children) != 1 || env.Text != "" ||
				string(Marshal(env.Children[0])) != string(Marshal(root)) {
				t.Fatalf("accepted %q, but spliced it reads %s, alone %s", b, Marshal(env), Marshal(root))
			}
		}
		if err != nil {
			return
		}
		m := Marshal(root)
		_, merr := ParseBytes(m)
		if got := WellFormedFragment(m); got != (merr == nil) {
			t.Fatalf("Marshal wrote %q (from %q): check says %v, ParseBytes says %v", m, b, got, merr)
		}
	})
}
