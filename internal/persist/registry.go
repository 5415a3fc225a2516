package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
)

// LoadSaver is the structural snapshot contract solver packages implement
// (mips.Persister is an alias of it). It is declared here so persist stays
// import-free of the solver layers (solver packages import persist, never
// the reverse).
type LoadSaver interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]func() LoadSaver{}
)

// Register installs the factory constructing an empty solver of the given
// snapshot kind, ready for Load. Solver packages call it from init();
// duplicate kinds are programmer errors and panic.
func Register(kind string, factory func() LoadSaver) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("persist: duplicate snapshot kind %q", kind))
	}
	registry[kind] = factory
}

// NewByKind constructs an empty solver for the given snapshot kind. The
// kind is known only if its package has been imported (directly, or via the
// root optimus package, which imports them all).
func NewByKind(kind string) (LoadSaver, error) {
	regMu.RLock()
	factory := registry[kind]
	regMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("persist: unknown snapshot kind %q (is its package imported?)", kind)
	}
	return factory(), nil
}

// Kinds returns the registered snapshot kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LoadAny peeks the stream's kind, constructs the matching solver through
// the registry, and loads it. The solver's own Load re-reads and
// re-validates the header, so the peek consumes nothing.
func LoadAny(r io.Reader) (LoadSaver, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	kind, err := PeekKind(br)
	if err != nil {
		return nil, err
	}
	s, err := NewByKind(kind)
	if err != nil {
		return nil, err
	}
	if err := s.Load(br); err != nil {
		return nil, err
	}
	return s, nil
}

// PeekKind reads the snapshot kind from the stream header without consuming
// any input.
func PeekKind(br *bufio.Reader) (string, error) {
	hdr, err := br.Peek(10)
	if err != nil {
		return "", fmt.Errorf("persist: peek header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return "", fmt.Errorf("persist: bad magic %q, want %q", hdr[:4], Magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return "", fmt.Errorf("persist: unsupported snapshot version %d (reader supports %d)", v, Version)
	}
	kindLen := int(binary.LittleEndian.Uint16(hdr[8:10]))
	if kindLen == 0 || kindLen > maxKindLen {
		return "", fmt.Errorf("persist: kind length %d out of range", kindLen)
	}
	full, err := br.Peek(10 + kindLen)
	if err != nil {
		return "", fmt.Errorf("persist: peek kind: %w", err)
	}
	return string(full[10:]), nil
}
