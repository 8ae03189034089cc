// Package gridftp implements the data-movement service of the Globus
// Toolkit (paper §3): file storage and transfer secured by GSI. The
// control protocol runs over the GT2 secured transport
// (internal/gsitransport); every operation is authorized against a
// per-path policy under the client's authenticated grid identity.
//
// The GSI showcase is the third-party transfer: a client directs server
// A to push a file to server B. A authenticates to B *as the client*
// using a credential the client delegated — single sign-on and
// delegation doing real work.
package gridftp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/authz"
	"repro/internal/gridcert"
)

// Store is an in-memory file tree with per-path authorization.
type Store struct {
	mu     sync.RWMutex
	files  map[string][]byte
	policy *authz.Policy
}

// NewStore creates a store governed by the given policy. Actions used:
// "read", "write", "delete", "list".
func NewStore(policy *authz.Policy) *Store {
	return &Store{files: make(map[string][]byte), policy: policy}
}

// PutOwned installs data without copying; ownership transfers to the
// store, which treats every stored slice as immutable from then on.
// The streaming PUT path assembles the file once from its chunks and
// hands the assembly straight over.
func (s *Store) PutOwned(identity gridcert.Name, path string, data []byte) error {
	if err := s.authorize(identity, path, "write"); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path] = data
	return nil
}

// Get reads a file as identity (copied out of the store).
func (s *Store) Get(identity gridcert.Name, path string) ([]byte, error) {
	data, err := s.Open(identity, path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// Open returns the stored content as an immutable reference: stored
// slices are never mutated in place (Put installs fresh ones), so the
// streaming GET path can seal records straight out of the store without
// a defensive copy.
func (s *Store) Open(identity gridcert.Name, path string) ([]byte, error) {
	if err := s.authorize(identity, path, "read"); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("gridftp: no such file %q", path)
	}
	return data, nil
}

// Delete removes a file as identity.
func (s *Store) Delete(identity gridcert.Name, path string) error {
	if err := s.authorize(identity, path, "delete"); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("gridftp: no such file %q", path)
	}
	delete(s.files, path)
	return nil
}

// List enumerates files under a prefix as identity.
func (s *Store) List(identity gridcert.Name, prefix string) ([]string, error) {
	if err := s.authorize(identity, prefix, "list"); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (s *Store) authorize(identity gridcert.Name, path, action string) error {
	d := s.policy.Evaluate(authz.Request{Subject: identity, Resource: path, Action: action})
	if d != authz.Permit {
		return fmt.Errorf("gridftp: %q denied %s on %q", identity, action, path)
	}
	return nil
}

// --- control protocol ----------------------------------------------------

// Command opcodes of the control protocol. GETS/PUTS stream their file
// body as chunk records after the command/acknowledgement round trip,
// so transfers are unbounded (no whole-message 16 MiB cap) and flow
// through the pooled record layer in DefaultChunkSize pieces.
const (
	opGetS = "GETS"
	opPutS = "PUTS"
	opDel  = "DEL"
	opList = "LIST"
	opOK   = "OK"
	opErr  = "ERR"
)

// encodeCmd frames a command: verb \x00 path \x00 payload. NUL is the
// frame delimiter, so a verb or path containing one would silently
// shift the frame — payload bytes would parse as path on the far side
// (a classic injection: a hostile "file\x00extra" path smuggles bytes
// into a different field). Both fields are rejected up front.
func encodeCmd(verb, path string, payload []byte) ([]byte, error) {
	if strings.IndexByte(verb, 0) >= 0 || strings.IndexByte(path, 0) >= 0 {
		return nil, errNULInCommand
	}
	out := make([]byte, 0, len(verb)+len(path)+len(payload)+2)
	out = append(out, verb...)
	out = append(out, 0)
	out = append(out, path...)
	out = append(out, 0)
	return append(out, payload...), nil
}

var errNULInCommand = errors.New("gridftp: NUL byte in command verb or path")

// encodeReply frames a server-side reply. Reply verbs are protocol
// constants and echoed paths were decoded from between NUL delimiters,
// so they cannot contain NUL; if a future caller violates that, the
// reply degrades to a bare error frame instead of a shifted one.
func encodeReply(verb, path string, payload []byte) []byte {
	out, err := encodeCmd(verb, path, payload)
	if err != nil {
		out, _ = encodeCmd(opErr, "", []byte(err.Error()))
	}
	return out
}

// decodeCmd reverses encodeCmd. The verb field is additionally held to
// the short uppercase-ASCII opcode alphabet so a shifted or hostile
// frame fails loudly instead of dispatching garbage.
func decodeCmd(msg []byte) (verb, path string, payload []byte, err error) {
	i := indexByte(msg, 0)
	if i < 0 {
		return "", "", nil, errors.New("gridftp: malformed command")
	}
	j := indexByte(msg[i+1:], 0)
	if j < 0 {
		return "", "", nil, errors.New("gridftp: malformed command")
	}
	verb = string(msg[:i])
	if !validVerb(verb) {
		return "", "", nil, fmt.Errorf("gridftp: invalid command verb %q", verb)
	}
	return verb, string(msg[i+1 : i+1+j]), msg[i+2+j:], nil
}

// validVerb accepts 1-8 uppercase ASCII letters — the opcode alphabet.
func validVerb(v string) bool {
	if len(v) == 0 || len(v) > 8 {
		return false
	}
	for i := 0; i < len(v); i++ {
		if v[i] < 'A' || v[i] > 'Z' {
			return false
		}
	}
	return true
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
}
