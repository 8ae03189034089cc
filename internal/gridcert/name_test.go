package gridcert

import (
	"testing"
	"testing/quick"
)

func TestParseNameRoundTrip(t *testing.T) {
	cases := []string{
		"/O=Grid/OU=ANL/CN=Alice",
		"/CN=root",
		"/O=Grid/CN=Alice/CN=proxy-1/CN=proxy-2",
	}
	for _, s := range cases {
		n, err := ParseName(s)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", s, err)
		}
		if got := n.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	bad := []string{
		"O=Grid",       // missing leading slash
		"/O=Grid/=bad", // empty type
		"/O=",          // empty value
		"/noequals",
		"/O=Grid//CN=x",
	}
	for _, s := range bad {
		if _, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) accepted malformed name", s)
		}
	}
}

func TestParseEmptyName(t *testing.T) {
	n, err := ParseName("")
	if err != nil {
		t.Fatal(err)
	}
	if !n.Empty() {
		t.Fatal("empty string should parse to empty name")
	}
	if n.String() != "/" {
		t.Fatalf("empty name renders as %q", n.String())
	}
}

func TestNameEqual(t *testing.T) {
	a := MustParseName("/O=Grid/CN=Alice")
	b := MustParseName("/O=Grid/CN=Alice")
	c := MustParseName("/O=Grid/CN=Bob")
	d := MustParseName("/CN=Alice/O=Grid") // order matters
	if !a.Equal(b) {
		t.Error("identical names not equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("distinct names reported equal")
	}
}

func TestNameCommonName(t *testing.T) {
	n := MustParseName("/O=Grid/CN=Alice/CN=proxy")
	if cn := n.CommonName(); cn != "proxy" {
		t.Fatalf("CommonName = %q, want proxy (last CN)", cn)
	}
	if cn := MustParseName("/O=Grid").CommonName(); cn != "" {
		t.Fatalf("CommonName of CN-less name = %q", cn)
	}
}

func TestWithCNParent(t *testing.T) {
	base := MustParseName("/O=Grid/CN=Alice")
	child := base.WithCN("proxy-42")
	if child.String() != "/O=Grid/CN=Alice/CN=proxy-42" {
		t.Fatalf("WithCN = %q", child)
	}
	// WithCN must not mutate the receiver.
	if base.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("WithCN mutated base: %q", base)
	}
	parent, ok := child.Parent()
	if !ok || !parent.Equal(base) {
		t.Fatalf("Parent = %q ok=%v", parent, ok)
	}
	if _, ok := (Name{}).Parent(); ok {
		t.Fatal("Parent of empty name reported ok")
	}
}

func TestIsImmediateChildOf(t *testing.T) {
	base := MustParseName("/O=Grid/CN=Alice")
	if !base.WithCN("p").IsImmediateChildOf(base) {
		t.Error("direct child not recognised")
	}
	if base.WithCN("p").WithCN("q").IsImmediateChildOf(base) {
		t.Error("grandchild accepted as immediate child")
	}
	if base.IsImmediateChildOf(base) {
		t.Error("name accepted as child of itself")
	}
	// Extra component must be CN, not another type.
	other := Name{Components: append(append([]NameComponent(nil), base.Components...), NameComponent{Type: "OU", Value: "x"})}
	if other.IsImmediateChildOf(base) {
		t.Error("non-CN extension accepted")
	}
	// Same length but different parent.
	sibling := MustParseName("/O=Grid/CN=Bob").WithCN("p")
	if sibling.IsImmediateChildOf(base) {
		t.Error("child of different parent accepted")
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	n := MustParseName("/O=Grid/OU=MCS/CN=Alice")
	e := &encoder{}
	n.encodeTo(e)
	d := &decoder{b: e.buf}
	got := decodeName(d)
	if err := d.done(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(n) {
		t.Fatalf("wire round trip: %q != %q", got, n)
	}
}

func TestDecodeNameRejectsHugeCount(t *testing.T) {
	e := &encoder{}
	e.u32(1 << 30)
	d := &decoder{b: e.buf}
	decodeName(d)
	if d.err == nil {
		t.Fatal("huge component count accepted")
	}
}

// Property: parse∘render is the identity on valid component sets.
func TestPropertyNameRenderParse(t *testing.T) {
	f := func(vals []string) bool {
		var n Name
		for i, v := range vals {
			if v == "" || containsAny(v, "/=") {
				return true // skip values our textual form cannot carry
			}
			typ := "CN"
			if i%2 == 0 {
				typ = "O"
			}
			n.Components = append(n.Components, NameComponent{Type: typ, Value: v})
		}
		if n.Empty() {
			return true
		}
		parsed, err := ParseName(n.String())
		return err == nil && parsed.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func containsAny(s, chars string) bool {
	for _, c := range chars {
		for _, r := range s {
			if r == c {
				return true
			}
		}
	}
	return false
}

// RendersAs(s) is String() == s, for every name and every candidate:
// the rendering itself, each of its prefixes and one-byte extensions,
// and every one-byte edit of it.
func TestNameRendersAs(t *testing.T) {
	names := []Name{
		{},
		MustParseName("/CN=root"),
		MustParseName("/O=Grid/OU=ANL/CN=Alice"),
		MustParseName("/O=Grid/CN=Alice/CN=proxy-1"),
		{Components: []NameComponent{{Type: "CN", Value: "a=b"}, {Type: "", Value: "x"}}},
	}
	for _, n := range names {
		r := n.String()
		cands := []string{r, r + "/", r + "x", "", "/", "//"}
		for i := range r {
			cands = append(cands, r[:i], r[:i]+"?"+r[i+1:], r[:i]+r[i+1:])
		}
		for _, m := range names {
			cands = append(cands, m.String())
		}
		for _, s := range cands {
			if got, want := n.RendersAs(s), r == s; got != want {
				t.Errorf("%q.RendersAs(%q) = %v, want %v", r, s, got, want)
			}
		}
	}
	f := func(types, vals []string, s string) bool {
		var n Name
		for i := range min(len(types), len(vals)) {
			n.Components = append(n.Components, NameComponent{Type: types[i], Value: vals[i]})
		}
		return n.RendersAs(s) == (n.String() == s) && n.RendersAs(n.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
