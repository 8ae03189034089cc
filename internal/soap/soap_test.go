package soap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnvelopeMarshalRoundTrip(t *testing.T) {
	e := NewEnvelope("http://gram/create", []byte("job description"))
	e.To = "gsh://host/service"
	e.SetHeader("wsse:Security", []byte{1, 2, 3, 0xff})
	e.SetHeader("Timestamp", []byte("2003-06-23T00:00:00Z"))

	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("<Envelope>")) {
		t.Fatal("output is not XML")
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Action != e.Action || got.MessageID != e.MessageID || got.To != e.To {
		t.Fatalf("addressing mismatch: %+v", got)
	}
	if !bytes.Equal(got.Body, e.Body) {
		t.Fatalf("body mismatch: %q", got.Body)
	}
	sec, ok := got.Header("wsse:Security")
	if !ok || !bytes.Equal(sec.Content, []byte{1, 2, 3, 0xff}) {
		t.Fatalf("security header mismatch: %v %v", ok, sec)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	e := NewEnvelope("op", nil)
	f := e.FaultReply("Sender", "bad token")
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fault == nil || got.Fault.Code != "Sender" || got.Fault.Reason != "bad token" {
		t.Fatalf("fault = %+v", got.Fault)
	}
	if got.RelatesTo != e.MessageID {
		t.Fatal("fault not correlated")
	}
}

func TestReplyCorrelation(t *testing.T) {
	req := NewEnvelope("op", []byte("x"))
	rep := req.Reply([]byte("y"))
	if rep.RelatesTo != req.MessageID {
		t.Fatal("RelatesTo not set")
	}
	if rep.Action != "opResponse" {
		t.Fatalf("reply action = %q", rep.Action)
	}
	if req.MessageID == rep.MessageID {
		t.Fatal("reply reused MessageID")
	}
}

func TestHeaderOperations(t *testing.T) {
	e := NewEnvelope("op", nil)
	e.SetHeader("A", []byte("1"))
	e.SetHeader("A", []byte("2")) // replace
	if h, _ := e.Header("A"); string(h.Content) != "2" {
		t.Fatalf("SetHeader did not replace: %q", h.Content)
	}
	if len(e.Headers) != 1 {
		t.Fatalf("headers = %d", len(e.Headers))
	}
}

func TestCanonicalStability(t *testing.T) {
	e := NewEnvelope("op", []byte("payload"))
	e.SetHeader("B", []byte("b"))
	e.SetHeader("A", []byte("a"))
	c1 := e.Canonical("A", "B")
	c2 := e.Canonical("B", "A") // order of names must not matter
	if !bytes.Equal(c1, c2) {
		t.Fatal("canonical form depends on header name order")
	}
	// Round trip through the wire preserves the canonical form.
	data, _ := e.Marshal()
	got, _ := Unmarshal(data)
	if !bytes.Equal(got.Canonical("A", "B"), c1) {
		t.Fatal("canonical form changed across wire round trip")
	}
	// Changing the body changes the canonical form.
	e.Body = []byte("other")
	if bytes.Equal(e.Canonical("A", "B"), c1) {
		t.Fatal("canonical form ignores body")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, bad := range []string{"", "not xml", "<Envelope><Body>!!!</Body></Envelope>"} {
		if _, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestDispatcher(t *testing.T) {
	d := NewDispatcher()
	d.Handle("exact", func(e *Envelope) (*Envelope, error) {
		return e.Reply([]byte("exact")), nil
	})
	d.Handle("svc/", func(e *Envelope) (*Envelope, error) {
		return e.Reply([]byte("prefix")), nil
	})
	d.Handle("svc/special", func(e *Envelope) (*Envelope, error) {
		return e.Reply([]byte("special")), nil
	})

	rep, err := d.Dispatch(NewEnvelope("exact", nil))
	if err != nil || string(rep.Body) != "exact" {
		t.Fatalf("%v %q", err, rep.Body)
	}
	rep, err = d.Dispatch(NewEnvelope("svc/anything", nil))
	if err != nil || string(rep.Body) != "prefix" {
		t.Fatalf("%v %q", err, rep.Body)
	}
	// Exact beats prefix.
	rep, err = d.Dispatch(NewEnvelope("svc/special", nil))
	if err != nil || string(rep.Body) != "special" {
		t.Fatalf("%v %q", err, rep.Body)
	}
	if _, err := d.Dispatch(NewEnvelope("unknown", nil)); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("unknown action: %v", err)
	}
}

func TestHTTPBinding(t *testing.T) {
	d := NewDispatcher()
	d.Handle("echo", func(e *Envelope) (*Envelope, error) {
		return e.Reply(append([]byte("echo:"), e.Body...)), nil
	})
	d.Handle("fail", func(e *Envelope) (*Envelope, error) {
		return nil, errors.New("handler exploded")
	})
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &Client{Endpoint: srv.URL()}
	rep, err := client.Call(NewEnvelope("echo", []byte("hi")))
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Body) != "echo:hi" {
		t.Fatalf("body = %q", rep.Body)
	}
	// Handler errors surface as faults.
	_, err = client.Call(NewEnvelope("fail", nil))
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if !strings.Contains(fault.Reason, "exploded") {
		t.Fatalf("fault reason = %q", fault.Reason)
	}
}

func TestPipeTransport(t *testing.T) {
	d := NewDispatcher()
	d.Handle("op", func(e *Envelope) (*Envelope, error) {
		return e.Reply(e.Body), nil
	})
	call := Pipe(d)
	rep, err := call(NewEnvelope("op", []byte("x")))
	if err != nil || string(rep.Body) != "x" {
		t.Fatalf("%v %q", err, rep.Body)
	}
}

// Property: every byte payload survives the XML wire round trip.
func TestPropertyBodyRoundTrip(t *testing.T) {
	f := func(body, hdr []byte) bool {
		e := NewEnvelope("op", body)
		e.SetHeader("H", hdr)
		data, err := e.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		h, _ := got.Header("H")
		return bytes.Equal(got.Body, body) && bytes.Equal(h.Content, hdr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	e := NewEnvelope("op", bytes.Repeat([]byte{1}, 1024))
	e.SetHeader("wsse:Security", bytes.Repeat([]byte{2}, 512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := e.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
