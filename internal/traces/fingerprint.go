package traces

import "math/bits"

// The 64-bit primes of xxHash64, whose single-lane word step and final
// avalanche Fingerprint reuses.
const (
	fpPrime1 = 0x9e3779b185ebca87
	fpPrime2 = 0xc2b2ae3d27d4eb4f
	fpPrime3 = 0x165667b19e3779f9
	fpPrime4 = 0x85ebca77c2b2ae63
)

// Fingerprint is a streaming 64-bit hash over flow records that mixes
// each field's value as one 64-bit word instead of formatting the record.
// It identifies a record stream, not an export: it is not comparable with
// an FNV-1a hash over serialized bytes. The zero value is ready to use.
//
// Add mixes the fields in CSV column order:
//
//	VP                                   length, then 8 bytes per word
//	Client<<32 | Server                  one word
//	ClientPort<<16 | ServerPort          one word
//	FirstPacket, LastPacket,
//	LastPayloadUp, LastPayloadDown       one word each, in nanoseconds
//	BytesUp, BytesDown, PktsUp, PktsDown,
//	PSHUp, PSHDown, RetransUp, RetransDown
//	                                     one word each
//	MinRTT                               one word, in nanoseconds
//	RTTSamples                           one word
//	SNI, CertName, FQDN                  length, then 8 bytes per word
//	NotifyHost                           one word
//	NotifyNamespaces                     length, then two per word
//	SawSYN | SawFIN<<1 | SawRST<<2 | ServerClosed<<3
//	                                     one word
//
// Strings are read little-endian and a short last word is zero-padded;
// the length prefixes keep field boundaries apart. The fingerprint is
// stricter than the CSV row: MinRTT counts below the row's microsecond,
// while a nil and an empty namespace list hash alike, as they print alike.
type Fingerprint struct {
	h uint64
}

// AddUint64 mixes one word into the hash: xxHash64's round on the word,
// then its merge step into the state.
func (f *Fingerprint) AddUint64(v uint64) {
	v = bits.RotateLeft64(v*fpPrime2, 31) * fpPrime1
	f.h = bits.RotateLeft64(f.h^v, 27)*fpPrime1 + fpPrime4
}

// addString mixes the length of s, then s itself 8 bytes at a time.
func (f *Fingerprint) addString(s string) {
	f.AddUint64(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		f.AddUint64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		f.AddUint64(w)
	}
}

// bit returns 1 for true.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Add mixes every field of r into the hash, in the order the Fingerprint
// documentation lists. It does not retain r.
func (f *Fingerprint) Add(r *FlowRecord) {
	f.addString(r.VP)
	f.AddUint64(uint64(r.Client)<<32 | uint64(r.Server))
	f.AddUint64(uint64(r.ClientPort)<<16 | uint64(r.ServerPort))
	f.AddUint64(uint64(r.FirstPacket))
	f.AddUint64(uint64(r.LastPacket))
	f.AddUint64(uint64(r.LastPayloadUp))
	f.AddUint64(uint64(r.LastPayloadDown))
	f.AddUint64(uint64(r.BytesUp))
	f.AddUint64(uint64(r.BytesDown))
	f.AddUint64(uint64(r.PktsUp))
	f.AddUint64(uint64(r.PktsDown))
	f.AddUint64(uint64(r.PSHUp))
	f.AddUint64(uint64(r.PSHDown))
	f.AddUint64(uint64(r.RetransUp))
	f.AddUint64(uint64(r.RetransDown))
	f.AddUint64(uint64(r.MinRTT))
	f.AddUint64(uint64(r.RTTSamples))
	f.addString(r.SNI)
	f.addString(r.CertName)
	f.addString(r.FQDN)
	f.AddUint64(r.NotifyHost)
	ns := r.NotifyNamespaces
	f.AddUint64(uint64(len(ns)))
	for ; len(ns) >= 2; ns = ns[2:] {
		f.AddUint64(uint64(ns[0]) | uint64(ns[1])<<32)
	}
	if len(ns) == 1 {
		f.AddUint64(uint64(ns[0]))
	}
	f.AddUint64(bit(r.SawSYN) | bit(r.SawFIN)<<1 | bit(r.SawRST)<<2 | bit(r.ServerClosed)<<3)
}

// Sum64 returns the hash of everything added so far, after xxHash64's
// final avalanche; it does not change the state.
func (f *Fingerprint) Sum64() uint64 {
	h := f.h
	h ^= h >> 33
	h *= fpPrime2
	h ^= h >> 29
	h *= fpPrime3
	h ^= h >> 32
	return h
}
