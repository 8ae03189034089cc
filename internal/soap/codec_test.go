package soap

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/israce"
)

// --- the oracle: the encoding/xml codec this package used to be ---------

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

func oracleMarshal(e *Envelope) ([]byte, error) {
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

func oracleUnmarshal(data []byte) (*Envelope, error) {
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

// --- writer == oracle, reader == oracle, on random envelopes -----------

// textAlphabet is what random text is drawn from: plain bytes, all eight
// characters the writer escapes, bytes and runes XML forbids (the writer
// puts U+FFFD in their place), and multi-byte runes up to four bytes.
var textAlphabet = []string{
	"a", "Z", "0", " ", ":", "/", "=", "#", ";", "\x7f",
	"<", ">", "&", `"`, "'", "\t", "\r", "\n",
	"\x00", "\x01", "\x1f", "\xff", "\xc0", "\xe2\x82", "\xed\xa0\x80", "\uFFFE", "\uFFFF",
	"é", "€", "\uFFFD", "😀", "&amp;", "&#xA;", "]]>", "<!--",
}

func randomText(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	var sb strings.Builder
	for n := rng.Intn(12); n >= 0; n-- {
		if rng.Intn(8) == 0 {
			sb.WriteByte(byte(rng.Intn(256))) // any byte at all: 0x80 is not in the alphabet
			continue
		}
		sb.WriteString(textAlphabet[rng.Intn(len(textAlphabet))])
	}
	return sb.String()
}

func randomPayload(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	p := make([]byte, rng.Intn(70))
	rng.Read(p)
	return p
}

func randomEnvelope(rng *rand.Rand) *Envelope {
	e := &Envelope{
		Action:    randomText(rng),
		MessageID: randomText(rng),
		RelatesTo: randomText(rng),
		To:        randomText(rng),
		Body:      randomPayload(rng),
	}
	for n := rng.Intn(5); n > 0; n-- {
		e.Headers = append(e.Headers, HeaderBlock{Name: randomText(rng), Content: randomPayload(rng)})
	}
	if rng.Intn(3) == 0 {
		e.Fault = &Fault{Code: randomText(rng), Reason: randomText(rng)}
	}
	return e
}

// TestMarshalMatchesEncodingXML: for every envelope the direct writer
// emits the bytes xml.MarshalIndent emitted — so a binary built before
// the change and one built after exchange envelopes in both directions —
// and the strict reader reads them back as xml.Unmarshal did.
func TestMarshalMatchesEncodingXML(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20_000; i++ {
		e := randomEnvelope(rng)
		got, err := e.Marshal()
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		want, err := oracleMarshal(e)
		if err != nil {
			t.Fatalf("envelope %d: oracle: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope %d %+v:\nwriter %q\noracle %q", i, e, got, want)
		}
		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("envelope %d: reader refuses the writer's own bytes %q: %v", i, got, err)
		}
		oracleBack, err := oracleUnmarshal(got)
		if err != nil {
			t.Fatalf("envelope %d: oracle: %v", i, err)
		}
		if !reflect.DeepEqual(back, oracleBack) {
			t.Fatalf("envelope %d, wire %q:\nreader %+v\noracle %+v", i, got, back, oracleBack)
		}
	}
}

// --- what the reader refuses -------------------------------------------

// genuine is Marshal's output for an envelope with every optional part.
const genuine = xml.Header + `<Envelope>
 <Header>
  <Action>op</Action>
  <MessageID>uuid:1</MessageID>
  <RelatesTo>uuid:0</RelatesTo>
  <To>gsh://host/svc</To>
  <Blocks>
   <Block name="wsse:Security">AQID</Block>
   <Block name="Timestamp"></Block>
  </Blocks>
 </Header>
 <Body>aGk=</Body>
 <Fault>
  <Code>Sender</Code>
  <Reason>bad&#x9;token &amp; &lt;more&gt;</Reason>
 </Fault>
</Envelope>`

// refusals holds one row per class of input encoding/xml used to wave
// through (or, for the escaping rows, that the writer never produces):
// genuine with old replaced by new, and the error that answers it.
var refusals = []struct {
	class, old, new, err string
}{
	{"trailing bytes", "</Envelope>", "</Envelope>\n", "offset 409: expected end of input"},
	{"trailing element", "</Envelope>", "</Envelope><Envelope/>", "offset 409: expected end of input"},
	{"second Body", "<Body>aGk=</Body>", "<Body>aGk=</Body><Body>aGk=</Body>", "offset 304: expected </Envelope>"},
	{"second Header", " <Body>", " <Header></Header><Body>", "offset 287: expected <Body>"},
	{"unknown element", "  <Blocks>", "  <Extra>x</Extra><Blocks>", "offset 174: expected <Blocks>"},
	{"reordered elements", "  <Action>op</Action>\n  <MessageID>uuid:1</MessageID>", "  <MessageID>uuid:1</MessageID>\n  <Action>op</Action>", "offset 62: expected <Action>"},
	{"missing element", "  <MessageID>uuid:1</MessageID>\n", "", "offset 84: expected <MessageID>"},
	{"missing Blocks", "  <Blocks>\n   <Block name=\"wsse:Security\">AQID</Block>\n   <Block name=\"Timestamp\"></Block>\n  </Blocks>\n", "", "offset 173: expected <Blocks>"},
	{"missing Fault part", "  <Reason>bad&#x9;token &amp; &lt;more&gt;</Reason>\n", "", "offset 337: expected <Reason>"},
	{"extra attribute", `<Block name="Timestamp">`, `<Block name="Timestamp" id="1">`, `offset 252: expected ">`},
	{"attribute on a plain element", "<Body>", `<Body id="1">`, "offset 287: expected <Body>"},
	{"other attribute", `<Block name="Timestamp">`, `<Block id="Timestamp">`, "offset 230: expected </Blocks>"},
	{"single-quoted attribute", `name="Timestamp"`, `name='Timestamp'`, "offset 230: expected </Blocks>"},
	{"comment between elements", " <Body>", " <!-- c --><Body>", "offset 287: expected <Body>"},
	{"comment in text", "<Action>op", "<Action>o<!-- c -->p", "offset 71: expected </Action>"},
	{"comment in payload", "<Body>aGk=", "<Body>aG<!-- c -->k=", "offset 295: expected base64 before </Body>"},
	{"CDATA in text", "<Action>op", "<Action><![CDATA[op]]>", "offset 70: expected </Action>"},
	{"CDATA in payload", "<Body>aGk=", "<Body><![CDATA[aGk=]]>", "offset 293: expected </Body>"},
	{"processing instruction", " <Header>", " <?pi x?><Header>", "offset 51: expected <Header>"},
	{"second XML declaration", "<Envelope>\n", xml.Header + "<Envelope>\n", "offset 39: expected <Envelope>"},
	{"DOCTYPE", "<Envelope>\n", "<!DOCTYPE Envelope [<!ENTITY e \"x\">]><Envelope>\n", "offset 39: expected <Envelope>"},
	{"default namespace", "<Envelope>\n", "<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\">\n", "offset 39: expected <Envelope>"},
	{"namespace prefix", "<Body>aGk=</Body>", "<s:Body>aGk=</s:Body>", "offset 287: expected <Body>"},
	{"no XML declaration", xml.Header, "", "offset 0: expected " + xml.Header},
	{"another XML declaration", xml.Header, "<?xml version=\"1.0\"?>\n", "offset 0: expected " + xml.Header},
	{"whitespace before the XML declaration", xml.Header, "\n" + xml.Header, "offset 0: expected " + xml.Header},
	{"byte order mark", xml.Header, "\xef\xbb\xbf" + xml.Header, "offset 0: expected " + xml.Header},
	{"whitespace in an end tag", "</Body>", "</Body >", "offset 297: expected </Body>"},
	{"whitespace in a start tag", "<Body>", "<Body >", "offset 287: expected <Body>"},
	{"self-closing element", "<Body>aGk=</Body>", "<Body/>", "offset 287: expected <Body>"},
	{"empty optional element", "<To>gsh://host/svc</To>", "<To></To>", "offset 152: expected text before </To>"},
	{"empty optional RelatesTo", "uuid:0", "", "offset 127: expected text before </RelatesTo>"},
	{"raw tab in text", "<Action>op", "<Action>o\tp", "offset 73: expected text as the writer escapes it before </Action>"},
	{"raw newline in text", "<Action>op", "<Action>\nop", "offset 73: expected text as the writer escapes it before </Action>"},
	{"raw > in text", "<Action>op", "<Action>o>p", "offset 73: expected text as the writer escapes it before </Action>"},
	{"raw quote in text", "<Action>op", `<Action>o"p`, "offset 73: expected text as the writer escapes it before </Action>"},
	{"raw apostrophe in an attribute", `"Timestamp"`, `"Time'stamp"`, `offset 253: expected text as the writer escapes it before ">`},
	{"raw < in an attribute", `"Timestamp"`, `"Time<stamp"`, `offset 253: expected text as the writer escapes it before ">`},
	{"NUL in text", "<Action>op", "<Action>o\x00p", "offset 73: expected text as the writer escapes it before </Action>"},
	{"invalid UTF-8 in text", "<Action>op", "<Action>o\xffp", "offset 73: expected text as the writer escapes it before </Action>"},
	{"truncated rune in text", "<Action>op", "<Action>o\xe2\x82</Action>", "offset 73: expected text as the writer escapes it before </Action>"},
	{"U+FFFF in text", "<Action>op", "<Action>o\uFFFFp", "offset 75: expected text as the writer escapes it before </Action>"},
	{"named reference the writer does not emit", "&amp;", "&quot;", "offset 379: expected text as the writer escapes it before </Reason>"},
	{"lower-case hex reference", "&#x9;", "&#x9;&#xa;", "offset 383: expected text as the writer escapes it before </Reason>"},
	{"decimal reference the writer does not emit", "&#x9;", "&#10;", "offset 378: expected text as the writer escapes it before </Reason>"},
	{"bare ampersand", "&amp;", "&", "offset 374: expected text as the writer escapes it before </Reason>"},
	{"custom entity", "&amp;", "&e;", "offset 376: expected text as the writer escapes it before </Reason>"},
	{"not base64", "<Body>aGk=", "<Body>!!!!", "offset 297: expected base64 before </Body>"},
	{"base64 with trailing bits set", "<Body>aGk=", "<Body>aGl=", "offset 297: expected base64 before </Body>"},
	{"reference in base64", "<Body>aGk=", "<Body>aGk&#61;", "offset 301: expected base64 before </Body>"},
	{"unpadded base64 in a header", ">AQID<", ">AQI<", "offset 217: expected base64 before </Block>"},
	{"empty input", genuine, "", "offset 0: expected " + xml.Header},
}

func refusalInput(t testing.TB, old, new string) string {
	if strings.Count(genuine, old) != 1 {
		t.Fatalf("refusal row: %q occurs %d times in the genuine envelope", old, strings.Count(genuine, old))
	}
	return strings.Replace(genuine, old, new, 1)
}

// structural reports which bytes of genuine are markup or the whitespace
// between elements: a text or payload byte may change and leave a valid,
// different, envelope; no structural byte may.
func structural() []bool {
	mask := make([]bool, len(genuine))
	for i := 0; i < len(genuine); {
		if genuine[i] != '<' {
			end := i + strings.IndexByte(genuine[i:], '<')
			between := strings.Trim(genuine[i:end], " \n") == ""
			for ; i < end; i++ {
				mask[i] = between
			}
			continue
		}
		inValue := false // an attribute's value is text, its quotes are not
		for end := i + strings.IndexByte(genuine[i:], '>'); i <= end; i++ {
			if genuine[i] == '"' && i > len(xml.Header) {
				inValue = !inValue
				mask[i] = true
			} else {
				mask[i] = !inValue
			}
		}
	}
	return mask
}

// TestUnmarshalRefusals: the strict reader refuses, with the offset and
// what it expected there, every class of input the envelope grammar
// leaves out; every truncation of a genuine envelope; and a genuine
// envelope with any one structural byte changed. None panics.
func TestUnmarshalRefusals(t *testing.T) {
	e, err := Unmarshal([]byte(genuine))
	if err != nil {
		t.Fatalf("the genuine envelope is refused: %v", err)
	}
	if again, _ := e.Marshal(); string(again) != genuine {
		t.Fatalf("the genuine envelope is not the writer's spelling:\n%s", again)
	}
	for _, row := range refusals {
		in := refusalInput(t, row.old, row.new)
		_, err := Unmarshal([]byte(in))
		if err == nil {
			t.Errorf("%s: accepted %q", row.class, in)
		} else if want := "soap: unmarshal: " + row.err; err.Error() != want {
			t.Errorf("%s:\n got %q\nwant %q", row.class, err, want)
		}
	}
	for cut := 0; cut < len(genuine); cut++ {
		_, err := Unmarshal([]byte(genuine[:cut]))
		if err == nil {
			t.Fatalf("accepted the genuine envelope cut to %d bytes", cut)
		}
		var off int
		if _, scanErr := fmt.Sscanf(err.Error(), "soap: unmarshal: offset %d: expected ", &off); scanErr != nil || off > cut {
			t.Fatalf("cut to %d bytes: error %q does not name an offset within the input", cut, err)
		}
	}
	mask := structural()
	for i, isStructure := range mask {
		if !isStructure {
			continue
		}
		for _, flip := range []byte{0x01, 0x20, 0x80} {
			mutated := []byte(genuine)
			mutated[i] ^= flip
			if _, err := Unmarshal(mutated); err == nil {
				t.Fatalf("accepted the genuine envelope with byte %d (%q) changed to %q", i, genuine[i], mutated[i])
			} else if !strings.HasPrefix(err.Error(), "soap: unmarshal: offset ") {
				t.Fatalf("byte %d changed: error %q", i, err)
			}
		}
	}
}

// TestUnmarshalWhitespaceBetweenElements: the grammar's one freedom.
func TestUnmarshalWhitespaceBetweenElements(t *testing.T) {
	want, err := Unmarshal([]byte(genuine))
	if err != nil {
		t.Fatal(err)
	}
	dense := strings.NewReplacer("\n   <", "<", "\n  <", "<", "\n <", "<", "\n<", "<").Replace(genuine[len(xml.Header):])
	airy := strings.NewReplacer("<Body>aGk=", "\r\n\t <Body> aGk=\r\n", "<Blocks>", "<Blocks> \t", ">AQID<", ">\nAQ\r\nID\n<").Replace(genuine)
	for _, in := range []string{xml.Header + dense, airy} {
		got, err := Unmarshal([]byte(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %+v\nwant %+v", in, got, want)
		}
	}
}

// stripSpace removes the bytes that may vary between two spellings the
// reader accepts: whitespace between elements and around and inside
// base64. (It takes the spaces out of text too, on both sides alike; the
// comparison with the oracle's Envelope is what holds text exact.)
func stripSpace(b []byte) []byte {
	return bytes.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\r' || r == '\n' {
			return -1
		}
		return r
	}, b)
}

// FuzzEnvelopeDecode: whatever the strict reader accepts, encoding/xml
// accepts and reads as the same Envelope, and writing that Envelope
// gives the input back up to whitespace — there is one spelling. The
// seed corpus is the refusal table.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte(genuine))
	// Small ones too: a mutation lands on structure more often.
	f.Add([]byte(xml.Header + "<Envelope><Header><Action>a</Action><MessageID>m</MessageID><Blocks></Blocks></Header><Body></Body></Envelope>"))
	f.Add([]byte(xml.Header + "<Envelope>\n<Header>\n<Action></Action>\n<MessageID></MessageID>\n<Blocks>\n<Block name=\"\">QQ==</Block>\n</Blocks>\n</Header>\n<Body>\nQUI=\n</Body>\n</Envelope>"))
	for _, row := range refusals {
		f.Add([]byte(refusalInput(f, row.old, row.new)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data, _ := randomEnvelope(rng).Marshal()
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		got, err := Unmarshal(data)
		if !bytes.Equal(in, data) {
			t.Fatal("Unmarshal changed its input")
		}
		if err != nil {
			if got != nil || !strings.HasPrefix(err.Error(), "soap: unmarshal: offset ") {
				t.Fatalf("refusal %q with envelope %v", err, got)
			}
			return
		}
		want, err := oracleUnmarshal(data)
		if err != nil {
			t.Fatalf("the strict reader accepts what encoding/xml refuses (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nreader %+v\noracle %+v", data, got, want)
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stripSpace(again), stripSpace(data)) {
			t.Fatalf("a second spelling was accepted:\ninput   %q\nwritten %q", data, again)
		}
	})
}

// TestBodyNeverAliasesInput: conversation code decrypts Body in place, and
// transports reuse what they read into — nothing Unmarshal returns may
// share memory with its input.
func TestBodyNeverAliasesInput(t *testing.T) {
	e := benchEnvelope(1024)
	e.To, e.RelatesTo = "gsh://host/svc", "uuid:0"
	e.Fault = &Fault{Code: "Sender", Reason: "bad &amp; token"}
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("the envelope changed when its input did:\n got %+v\nwant %+v", got, e)
	}
	for i := range got.Body {
		got.Body[i] = 0
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{'X'}, len(data))) {
		t.Fatal("writing the body wrote the input")
	}
}

// benchEnvelope is BenchmarkEnvelopeRoundTrip's envelope, scaled.
func benchEnvelope(bodyLen int) *Envelope {
	e := NewEnvelope("op", bytes.Repeat([]byte{1}, bodyLen))
	e.SetHeader("wsse:Security", bytes.Repeat([]byte{2}, 512))
	return e
}

// TestEnvelopeCodecAllocs: a round trip allocates what it returns — the
// wire buffer, the Envelope, its strings, its header slice, its payloads
// (8 for the benchmark envelope; encoding/xml took 128) — and nothing per
// byte: a 4 MiB body costs the same count and under three times its size
// (4/3 for the base64 text, 1 for the decoded body).
func TestEnvelopeCodecAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	for _, bodyLen := range []int{1024, 4 << 20} {
		e := benchEnvelope(bodyLen)
		roundTrip := func() {
			data, err := e.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Unmarshal(data); err != nil || len(got.Body) != bodyLen {
				t.Fatalf("round trip: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(5, roundTrip)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		roundTrip()
		runtime.ReadMemStats(&after)
		size := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d-byte body: %.0f allocations, %d bytes", bodyLen, allocs, size)
		if allocs > 12 {
			t.Errorf("%d-byte body: a round trip allocates %.0f times, want <= 12", bodyLen, allocs)
		}
		if bodyLen > 1<<20 && size > 3*uint64(bodyLen) {
			t.Errorf("%d-byte body: a round trip allocates %d bytes, want <= 3x the body", bodyLen, size)
		}
	}
}
