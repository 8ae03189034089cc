// Package soap implements the messaging substrate of GT3: XML envelopes
// with headers and body (SOAP 1.1 in the paper), an HTTP binding, and an
// action-based dispatcher. GT3 "uses SOAP and the Web services security
// specifications for all of its communications" (§5); the security
// packages (internal/xmlsec, internal/wssec) operate on these envelopes.
//
// On the wire an envelope has one spelling: xml.Header, then
//
//	<Envelope><Header><Action>T</Action><MessageID>T</MessageID>
//	[<RelatesTo>T</RelatesTo>][<To>T</To>]<Blocks>(<Block name="T">B</Block>)*
//	</Blocks></Header><Body>B</Body>[<Fault><Code>T</Code><Reason>T</Reason></Fault>]</Envelope>
//
// with XML whitespace between elements only, T text as xml.EscapeText
// escapes it and B base64 — byte for byte what encoding/xml's MarshalIndent
// wrote when it was the writer. Unmarshal refuses everything else (trailing
// bytes, a second Body, comments, CDATA, a DOCTYPE, namespaces, ...), so
// the bytes that were checked and the fields that are used cannot differ.
package soap

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gridcrypto"
)

// HeaderBlock is one SOAP header entry: a named element whose content is
// an opaque (base64-encoded on the wire) byte payload.
type HeaderBlock struct {
	// Name identifies the block, e.g. "wsse:Security" or "Timestamp".
	Name string
	// Content is the block payload.
	Content []byte
}

// Envelope is a SOAP message.
type Envelope struct {
	// Action routes the message (WS-Addressing style).
	Action string
	// MessageID uniquely identifies the message; RelatesTo links replies.
	MessageID string
	RelatesTo string
	// To names the target service endpoint (a Grid Service Handle).
	To string
	// Headers carry protocol blocks (security tokens, signatures, ...).
	Headers []HeaderBlock
	// Body is the application payload.
	Body []byte
	// Fault carries error information in replies.
	Fault *Fault
}

// Fault is a SOAP fault.
type Fault struct {
	Code   string
	Reason string
}

// Error implements error so faults can flow through error returns.
func (f *Fault) Error() string { return fmt.Sprintf("soap fault %s: %s", f.Code, f.Reason) }

// NewEnvelope creates an envelope with a fresh random MessageID.
func NewEnvelope(action string, body []byte) *Envelope {
	id, err := gridcrypto.RandomBytes(16)
	if err != nil {
		// Random source failure is unrecoverable for messaging.
		panic("soap: random MessageID: " + err.Error())
	}
	return &Envelope{
		Action:    action,
		MessageID: fmt.Sprintf("uuid:%x", id),
		Body:      body,
	}
}

// Reply creates a response envelope correlated to a request.
func (e *Envelope) Reply(body []byte) *Envelope {
	r := NewEnvelope(e.Action+"Response", body)
	r.RelatesTo = e.MessageID
	return r
}

// FaultReply creates a fault response correlated to a request.
func (e *Envelope) FaultReply(code, reason string) *Envelope {
	r := NewEnvelope(e.Action+"Fault", nil)
	r.RelatesTo = e.MessageID
	r.Fault = &Fault{Code: code, Reason: reason}
	return r
}

// Header returns the first header block with the given name.
func (e *Envelope) Header(name string) (HeaderBlock, bool) {
	for _, h := range e.Headers {
		if h.Name == name {
			return h, true
		}
	}
	return HeaderBlock{}, false
}

// SetHeader replaces (or appends) the named header block.
func (e *Envelope) SetHeader(name string, content []byte) {
	for i, h := range e.Headers {
		if h.Name == name {
			e.Headers[i].Content = content
			return
		}
	}
	e.Headers = append(e.Headers, HeaderBlock{Name: name, Content: content})
}

// --- XML wire form -----------------------------------------------------

// Marshal renders the envelope in its one spelling, into a buffer sized
// up front (512 covers the markup and a fault's text) so a
// multi-megabyte body is written once.
func (e *Envelope) Marshal() ([]byte, error) {
	n := 512 + len(e.Action) + len(e.MessageID) + len(e.RelatesTo) + len(e.To) + base64.StdEncoding.EncodedLen(len(e.Body))
	for _, h := range e.Headers {
		n += 32 + len(h.Name) + base64.StdEncoding.EncodedLen(len(h.Content))
	}
	b := append(make([]byte, 0, n), xml.Header+"<Envelope>\n <Header>\n"...)
	b = appendElement(b, "  <Action>", e.Action, "</Action>\n")
	b = appendElement(b, "  <MessageID>", e.MessageID, "</MessageID>\n")
	if e.RelatesTo != "" {
		b = appendElement(b, "  <RelatesTo>", e.RelatesTo, "</RelatesTo>\n")
	}
	if e.To != "" {
		b = appendElement(b, "  <To>", e.To, "</To>\n")
	}
	b = append(b, "  <Blocks>"...)
	for _, h := range e.Headers {
		b = appendElement(b, "\n   <Block name=\"", h.Name, "\">")
		b = append(base64.StdEncoding.AppendEncode(b, h.Content), "</Block>"...)
	}
	if len(e.Headers) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "</Blocks>\n </Header>\n <Body>"...)
	b = append(base64.StdEncoding.AppendEncode(b, e.Body), "</Body>\n"...)
	if e.Fault != nil {
		b = appendElement(b, " <Fault>\n  <Code>", e.Fault.Code, "</Code>\n")
		b = appendElement(b, "  <Reason>", e.Fault.Reason, "</Reason>\n </Fault>\n")
	}
	return append(b, "</Envelope>"...), nil
}

// plainText reports whether s is all bytes xml.EscapeText copies as they
// are: every field this repo writes is, nothing with a multi-byte rune.
func plainText(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"'&<>`, c) >= 0 {
			return false
		}
	}
	return true
}

// appendElement appends open, text escaped by xml.EscapeText, and close.
func appendElement(b []byte, open, text, close string) []byte {
	b = append(b, open...)
	if plainText(text) {
		return append(append(b, text...), close...)
	}
	buf := bytes.NewBuffer(b)
	xml.EscapeText(buf, []byte(text)) // writes to a bytes.Buffer do not fail
	return append(buf.Bytes(), close...)
}

// reader is a cursor over one envelope; the first refusal sticks.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(expected string) {
	if r.err == nil {
		r.err = fmt.Errorf("soap: unmarshal: offset %d: expected %s", r.off, expected)
	}
}

// next consumes tag if the input continues with it, after any XML
// whitespace: none comes before the XML declaration, and there is none to
// skip beside text or a payload, which end at their delimiter.
func (r *reader) next(tag string) bool {
	for r.off > 0 && r.off < len(r.data) && strings.IndexByte(" \t\r\n", r.data[r.off]) >= 0 {
		r.off++
	}
	if rest := r.data[r.off:]; r.err != nil || len(rest) < len(tag) || string(rest[:len(tag)]) != tag {
		return false
	}
	r.off += len(tag)
	return true
}

func (r *reader) need(tags ...string) {
	for _, tag := range tags {
		if !r.next(tag) {
			r.fail(tag)
		}
	}
}

// until returns the bytes before the next end, or none: then the next need fails.
func (r *reader) until(end byte) []byte {
	n := max(bytes.IndexByte(r.data[r.off:], end), 0)
	r.off += n
	return r.data[r.off-n : r.off]
}

// unescape reverses the eight escapes xml.EscapeText writes.
var unescape = strings.NewReplacer("&#34;", `"`, "&#39;", "'", "&amp;", "&", "&lt;", "<", "&gt;", ">", "&#x9;", "\t", "&#xA;", "\n", "&#xD;", "\r")

// text reads character data and the close that ends it (`">` after an
// attribute), in the writer's spelling only: escaping what it decodes to
// must give the same bytes back, which refuses every raw byte the writer
// escapes and every reference it does not write. An optional element is
// never empty: the writer leaves it out.
func (r *reader) text(close string, optional bool) string {
	raw := r.until(close[0])
	s := string(raw)
	if !plainText(s) {
		if s = unescape.Replace(s); string(appendElement(nil, "", s, "")) != string(raw) {
			r.fail("text as the writer escapes it before " + close)
		}
	}
	if optional && s == "" {
		r.fail("text before " + close)
	}
	r.need(close)
	return s
}

// canonicalBase64 refuses trailing bits the writer never sets.
var canonicalBase64 = base64.StdEncoding.Strict()

// payload reads base64 and the close that ends it, into a buffer of its
// own: callers decrypt bodies in place, so it must not alias the input.
func (r *reader) payload(close string) []byte {
	raw := bytes.Trim(r.until('<'), " \t\r\n")
	if r.err != nil {
		return nil
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := canonicalBase64.Decode(out, raw)
	if err != nil {
		r.fail("base64 before " + close)
	}
	r.need(close)
	return out[:n]
}

// Unmarshal parses an envelope, strictly: the one spelling Marshal writes
// (the package comment has the grammar) and nothing else.
func Unmarshal(data []byte) (*Envelope, error) {
	r, e := reader{data: data}, &Envelope{}
	r.need(xml.Header, "<Envelope>", "<Header>", "<Action>")
	e.Action = r.text("</Action>", false)
	r.need("<MessageID>")
	e.MessageID = r.text("</MessageID>", false)
	if r.next("<RelatesTo>") {
		e.RelatesTo = r.text("</RelatesTo>", true)
	}
	if r.next("<To>") {
		e.To = r.text("</To>", true)
	}
	r.need("<Blocks>")
	for r.next(`<Block name="`) {
		e.Headers = append(e.Headers, HeaderBlock{Name: r.text(`">`, false), Content: r.payload("</Block>")})
	}
	r.need("</Blocks>", "</Header>", "<Body>")
	e.Body = r.payload("</Body>")
	if r.next("<Fault>") {
		r.need("<Code>")
		code := r.text("</Code>", false)
		r.need("<Reason>")
		e.Fault = &Fault{Code: code, Reason: r.text("</Reason>", false)}
		r.need("</Fault>")
	}
	r.need("</Envelope>")
	if r.err == nil && r.off == len(data) {
		return e, nil
	}
	r.fail("end of input")
	return nil, r.err
}

// Canonical returns the canonical byte form of the envelope parts covered
// by a detached signature: action, addressing, the named header blocks
// (sorted), and the body. Signature headers themselves are excluded by
// the caller choosing names.
func (e *Envelope) Canonical(headerNames ...string) []byte {
	head := "action:" + e.Action + "\nid:" + e.MessageID + "\nrelates:" + e.RelatesTo + "\nto:" + e.To + "\n"
	b := append(make([]byte, 0, len(head)+16+base64.StdEncoding.EncodedLen(len(e.Body))), head...)
	sorted := append([]string(nil), headerNames...)
	sort.Strings(sorted)
	for _, name := range sorted {
		h, ok := e.Header(name)
		if !ok {
			continue
		}
		b = append(append(append(b, "hdr:"...), name...), '=')
		b = append(base64.StdEncoding.AppendEncode(b, h.Content), '\n')
	}
	return base64.StdEncoding.AppendEncode(append(b, "body:"...), e.Body)
}

// ErrNoHandler is returned by dispatchers for unknown actions.
var ErrNoHandler = errors.New("soap: no handler for action")
