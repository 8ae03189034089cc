// Package soap implements the messaging substrate of GT3: XML envelopes
// with headers and body (SOAP 1.1 in the paper), an HTTP binding, and an
// action-based dispatcher. GT3 "uses SOAP and the Web services security
// specifications for all of its communications" (§5); the security
// packages (internal/xmlsec, internal/wssec) operate on these envelopes.
//
// Envelopes are real XML (encoding/xml) with a deterministic canonical
// serialization so detached signatures verify across hosts. Opaque
// payloads (tokens, wrapped bytes) travel base64-encoded in leaf elements.
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

// RemoveHeader deletes the named header block.
func (e *Envelope) RemoveHeader(name string) {
	for i, h := range e.Headers {
		if h.Name == name {
			e.Headers = append(e.Headers[:i], e.Headers[i+1:]...)
			return
		}
	}
}

// --- XML wire form -----------------------------------------------------

type xmlHeaderBlock struct {
	XMLName xml.Name `xml:"Block"`
	Name    string   `xml:"name,attr"`
	Content string   `xml:",chardata"`
}

type xmlFault struct {
	Code   string `xml:"Code"`
	Reason string `xml:"Reason"`
}

type xmlEnvelope struct {
	XMLName   xml.Name         `xml:"Envelope"`
	Action    string           `xml:"Header>Action"`
	MessageID string           `xml:"Header>MessageID"`
	RelatesTo string           `xml:"Header>RelatesTo,omitempty"`
	To        string           `xml:"Header>To,omitempty"`
	Blocks    []xmlHeaderBlock `xml:"Header>Blocks>Block"`
	Body      string           `xml:"Body"`
	Fault     *xmlFault        `xml:"Fault,omitempty"`
}

// Marshal renders the envelope as XML.
func (e *Envelope) Marshal() ([]byte, error) {
	xe := xmlEnvelope{
		Action:    e.Action,
		MessageID: e.MessageID,
		RelatesTo: e.RelatesTo,
		To:        e.To,
		Body:      base64.StdEncoding.EncodeToString(e.Body),
	}
	for _, h := range e.Headers {
		xe.Blocks = append(xe.Blocks, xmlHeaderBlock{
			Name:    h.Name,
			Content: base64.StdEncoding.EncodeToString(h.Content),
		})
	}
	if e.Fault != nil {
		xe.Fault = &xmlFault{Code: e.Fault.Code, Reason: e.Fault.Reason}
	}
	out, err := xml.MarshalIndent(xe, "", " ")
	if err != nil {
		return nil, fmt.Errorf("soap: marshal: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// Unmarshal parses an XML envelope.
func Unmarshal(data []byte) (*Envelope, error) {
	var xe xmlEnvelope
	if err := xml.Unmarshal(data, &xe); err != nil {
		return nil, fmt.Errorf("soap: unmarshal: %w", err)
	}
	body, err := base64.StdEncoding.DecodeString(strings.TrimSpace(xe.Body))
	if err != nil {
		return nil, fmt.Errorf("soap: body decode: %w", err)
	}
	e := &Envelope{
		Action:    xe.Action,
		MessageID: xe.MessageID,
		RelatesTo: xe.RelatesTo,
		To:        xe.To,
		Body:      body,
	}
	for _, b := range xe.Blocks {
		content, err := base64.StdEncoding.DecodeString(strings.TrimSpace(b.Content))
		if err != nil {
			return nil, fmt.Errorf("soap: header %q decode: %w", b.Name, err)
		}
		e.Headers = append(e.Headers, HeaderBlock{Name: b.Name, Content: content})
	}
	if xe.Fault != nil {
		e.Fault = &Fault{Code: xe.Fault.Code, Reason: xe.Fault.Reason}
	}
	return e, nil
}

// Canonical returns the canonical byte form of the envelope parts covered
// by a detached signature: action, addressing, the named header blocks
// (sorted), and the body. Signature headers themselves are excluded by
// the caller choosing names.
func (e *Envelope) Canonical(headerNames ...string) []byte {
	var buf bytes.Buffer
	buf.WriteString("action:")
	buf.WriteString(e.Action)
	buf.WriteString("\nid:")
	buf.WriteString(e.MessageID)
	buf.WriteString("\nrelates:")
	buf.WriteString(e.RelatesTo)
	buf.WriteString("\nto:")
	buf.WriteString(e.To)
	buf.WriteByte('\n')
	sorted := append([]string(nil), headerNames...)
	sort.Strings(sorted)
	for _, name := range sorted {
		h, ok := e.Header(name)
		if !ok {
			continue
		}
		buf.WriteString("hdr:")
		buf.WriteString(name)
		buf.WriteByte('=')
		buf.WriteString(base64.StdEncoding.EncodeToString(h.Content))
		buf.WriteByte('\n')
	}
	buf.WriteString("body:")
	buf.WriteString(base64.StdEncoding.EncodeToString(e.Body))
	return buf.Bytes()
}

// ErrNoHandler is returned by dispatchers for unknown actions.
var ErrNoHandler = errors.New("soap: no handler for action")
