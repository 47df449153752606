package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

// The typed tier API over the generic blob store.
//
// Results are stored as one atomic file holding both the job metadata and
// the exact result document bytes:
//
//	magic "NDRS" + version uint16
//	uint32 meta length  + meta bytes  (JSON job snapshot, opaque here)
//	uint32 body length  + body bytes  (the document, served verbatim)
//	uint32 IEEE CRC-32 of everything above
//
// A single file (not a meta/body pair) so crash-safety reduces to the one
// rename in writeFileAtomic: the tiers never need cross-file ordering.

const (
	resultMagic = "NDRS"
	// ResultCodecVersion is the result envelope layout version.
	ResultCodecVersion = 1
)

// PutResult persists one completed job: its metadata snapshot (opaque
// bytes, the serving layer's JSON job info) and the exact result document.
func (s *Store) PutResult(id string, meta, body []byte) error {
	buf := make([]byte, 0, 4+2+4+len(meta)+4+len(body)+4)
	buf = append(buf, resultMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ResultCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return s.put(ResultTier, id+".res", buf)
}

// GetResult loads one persisted job by ID. ok is false on a miss — absent,
// torn, or version-skewed artifacts all count (and the latter two are
// deleted so the slot recomputes honestly).
func (s *Store) GetResult(id string) (meta, body []byte, ok bool) {
	buf, ok := s.get(ResultTier, id+".res")
	if !ok {
		return nil, nil, false
	}
	meta, body, err := decodeResult(buf)
	if err != nil {
		s.drop(ResultTier, id+".res")
		return nil, nil, false
	}
	return meta, body, true
}

func decodeResult(buf []byte) (meta, body []byte, err error) {
	if len(buf) < 4+2+4+4+4 || string(buf[:4]) != resultMagic {
		return nil, nil, fmt.Errorf("store: bad result envelope")
	}
	payload, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("store: result checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(payload[4:]); v != ResultCodecVersion {
		return nil, nil, fmt.Errorf("store: result version %d", v)
	}
	rest := payload[6:]
	nm := int(binary.LittleEndian.Uint32(rest))
	if nm < 0 || 4+nm+4 > len(rest) {
		return nil, nil, fmt.Errorf("store: result meta length %d", nm)
	}
	meta = rest[4 : 4+nm]
	rest = rest[4+nm:]
	nb := int(binary.LittleEndian.Uint32(rest))
	if nb < 0 || 4+nb != len(rest) {
		return nil, nil, fmt.Errorf("store: result body length %d", nb)
	}
	return meta, rest[4 : 4+nb], nil
}

// universeKey names a universe artifact: the canonical circuit hash and
// the fault model — and nothing else (DESIGN.md §11, §12). Every
// result-identity option variant (NMax, K, Seed, Definition, Ge11Limit)
// maps to the same artifact. The "-m0" infix is kept from an older key
// that carried an input bound, always 0, so existing artifacts stay warm.
// The default model keeps the pre-registry key shape for the same reason;
// non-default models get their own slot — without the model component a
// second model would silently collide with stuck-at/bridge artifacts.
func universeKey(hash, model string) string {
	if model == "" || model == fault.DefaultModelID {
		return hash + "-m0.u"
	}
	return hash + "-m0-" + model + ".u"
}

// PutUniverse persists an encoded universe artifact (EncodeUniverse).
func (s *Store) PutUniverse(hash, model string, artifact []byte) error {
	return s.put(UniverseTier, universeKey(hash, model), artifact)
}

// GetUniverse loads the raw universe artifact for (hash, model).
func (s *Store) GetUniverse(hash, model string) ([]byte, bool) {
	return s.get(UniverseTier, universeKey(hash, model))
}

// DropUniverse removes a universe artifact (readers call it on decode
// failure so the slot rebuilds).
func (s *Store) DropUniverse(hash, model string) {
	s.drop(UniverseTier, universeKey(hash, model))
}

// Universe implements the analysis driver's universe source
// (exp.UniverseSource) directly on the store: UniverseWith with the
// standard construction. Callers needing coalescing of concurrent
// constructions layer it on top (the serving layer's flights) — the store
// itself only answers "load or build".
func (s *Store) Universe(c *circuit.Circuit, m fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	return s.UniverseWith(c, m, opts, ndetect.BuildUniverse)
}

// UniverseWith is the universe tier's one resolution path: load the
// artifact for the circuit's canonical hash and fault model, or construct
// the universe with build, persist it, and return it. Decode failures
// (stale codec version, model skew, corruption) rebuild and overwrite; a
// failed persist is best-effort — the construction already succeeded, so
// the analysis proceeds and only the warm start is lost.
//
// The circuit must already be canonical (the driver always is — see
// exp.AnalyzeCircuit): the artifact's fault tables index canonical node
// IDs, so binding them to a differently-ordered instance would scramble
// fault names.
func (s *Store) UniverseWith(c *circuit.Circuit, m fault.Model, opts ndetect.AnalyzeOptions,
	build func(*circuit.Circuit, fault.Model, ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error)) (*ndetect.CircuitUniverse, error) {
	hash := circuit.Hash(c)
	model := m.ID()
	if artifact, ok := s.GetUniverse(hash, model); ok {
		if u, err := DecodeUniverse(c, m, artifact); err == nil {
			return u, nil
		}
		s.DropUniverse(hash, model)
	}
	u, err := build(c, m, opts)
	if err != nil {
		return nil, err
	}
	s.PutUniverse(hash, model, EncodeUniverse(u)) // best effort
	return u, nil
}
