package gridcert

import (
	"fmt"
	"strings"
)

// Name is an X.500-style distinguished name: an ordered sequence of
// attribute components, written most-significant first, e.g.
// "/O=Grid/OU=ANL/CN=Alice". Order matters: proxy-certificate validation
// depends on a proxy subject being exactly its issuer's subject plus one
// trailing CN component.
type Name struct {
	Components []NameComponent
}

// NameComponent is one attribute of a distinguished name.
type NameComponent struct {
	Type  string // e.g. "O", "OU", "CN"
	Value string
}

// ParseName parses the slash-separated textual form, e.g.
// "/O=Grid/OU=ANL/CN=Alice". An empty string yields the empty Name.
func ParseName(s string) (Name, error) {
	var n Name
	if s == "" {
		return n, nil
	}
	if !strings.HasPrefix(s, "/") {
		return n, fmt.Errorf("gridcert: name %q must start with '/'", s)
	}
	for _, part := range strings.Split(s[1:], "/") {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return Name{}, fmt.Errorf("gridcert: malformed name component %q", part)
		}
		typ, val := part[:eq], part[eq+1:]
		if val == "" {
			return Name{}, fmt.Errorf("gridcert: empty value in name component %q", part)
		}
		n.Components = append(n.Components, NameComponent{Type: typ, Value: val})
	}
	return n, nil
}

// MustParseName is ParseName that panics on error; for tests and constants.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the slash-separated textual form.
func (n Name) String() string {
	if len(n.Components) == 0 {
		return "/"
	}
	var sb strings.Builder
	for _, c := range n.Components {
		sb.WriteByte('/')
		sb.WriteString(c.Type)
		sb.WriteByte('=')
		sb.WriteString(c.Value)
	}
	return sb.String()
}

// Equal reports whether two names have identical component sequences.
func (n Name) Equal(m Name) bool {
	if len(n.Components) != len(m.Components) {
		return false
	}
	for i := range n.Components {
		if n.Components[i] != m.Components[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the name has no components.
func (n Name) Empty() bool { return len(n.Components) == 0 }

// CommonName returns the value of the last CN component, or "".
func (n Name) CommonName() string {
	for i := len(n.Components) - 1; i >= 0; i-- {
		if n.Components[i].Type == "CN" {
			return n.Components[i].Value
		}
	}
	return ""
}

// WithCN returns a copy of n with one additional trailing CN component.
// This is how proxy subject names are derived from their issuer.
func (n Name) WithCN(value string) Name {
	out := Name{Components: make([]NameComponent, len(n.Components)+1)}
	copy(out.Components, n.Components)
	out.Components[len(n.Components)] = NameComponent{Type: "CN", Value: value}
	return out
}

// Parent returns the name with its final component removed, and whether a
// component was removed. For a proxy subject this recovers the issuer name.
func (n Name) Parent() (Name, bool) {
	if len(n.Components) == 0 {
		return Name{}, false
	}
	out := Name{Components: make([]NameComponent, len(n.Components)-1)}
	copy(out.Components, n.Components[:len(n.Components)-1])
	return out, true
}

// IsImmediateChildOf reports whether n equals parent plus exactly one
// trailing CN component — the RFC 3820 proxy subject-name rule.
func (n Name) IsImmediateChildOf(parent Name) bool {
	if len(n.Components) != len(parent.Components)+1 {
		return false
	}
	last := n.Components[len(n.Components)-1]
	if last.Type != "CN" {
		return false
	}
	return Name{n.Components[:len(parent.Components)]}.Equal(parent)
}

// encodeTo appends the wire encoding of the name.
func (n Name) encodeTo(e *encoder) {
	e.u32(uint32(len(n.Components)))
	for _, c := range n.Components {
		e.str(c.Type)
		e.str(c.Value)
	}
}

const maxNameComponents = 256

// decodeName reads a Name from d.
func decodeName(d *decoder) Name {
	cnt := d.count("name component", d.u32(), maxNameComponents)
	var n Name
	for i := 0; i < cnt && d.err == nil; i++ {
		typ := d.str()
		val := d.str()
		if d.err == nil && (typ == "" || val == "") {
			d.fail(fmt.Errorf("gridcert: empty name component at index %d", i))
			return Name{}
		}
		n.Components = append(n.Components, NameComponent{Type: typ, Value: val})
	}
	return n
}
