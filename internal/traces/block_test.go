package traces

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"insidedropbox/internal/wire"
)

// refColumn builds a dictionary column the plain way: every value looked
// up in a map, in record order.
func refColumn[K comparable](vals []K) (entries []K, refs []uint32) {
	idx := map[K]uint32{}
	for _, v := range vals {
		i, ok := idx[v]
		if !ok {
			i = uint32(len(entries))
			idx[v] = i
			entries = append(entries, v)
		}
		refs = append(refs, i)
	}
	return entries, refs
}

// TestAddMatchesReferenceColumns checks the dictionary columns add builds —
// the anonymized client column keyed by address, the string columns
// behind their per-length cache — against refColumn over the tokens and
// strings of the same records, block after block on one reused
// accumulator. Clients repeat, the names collide in the cache's slots
// (equal lengths, and lengths 16 apart), and each name also arrives as a
// copy in an allocation of its own.
func TestAddMatchesReferenceColumns(t *testing.T) {
	names := []string{
		"", "a.example", "b.example", "c.example", "z", "0123456789abcdefz",
		"dl-client77.dropbox.com", "dl-client78.dropbox.com", "notify3.dropbox.com",
	}
	clients := make([]wire.IP, 40)
	for i := range clients {
		clients[i] = wire.MakeIP(10, 0, byte(i/8), byte(i))
	}
	rng := rand.New(rand.NewSource(3))
	name := func() string {
		s := names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			s = strings.Clone(s)
		}
		return s
	}
	for _, anonymize := range []bool{true, false} {
		var a blockAccum
		for block := range 4 {
			a.reset()
			var toks []uint64
			var vp, sni, cert, fqdn []string
			for range 300 + 100*block {
				r := &FlowRecord{
					Client: clients[rng.Intn(len(clients))],
					VP:     name(), SNI: name(), CertName: name(), FQDN: name(),
				}
				a.add(r, anonymize)
				tok := uint64(uint32(r.Client))
				if anonymize {
					tok = anonToken(r.Client)
				}
				toks = append(toks, tok)
				vp, sni, cert, fqdn = append(vp, r.VP), append(sni, r.SNI), append(cert, r.CertName), append(fqdn, r.FQDN)
			}
			at := fmt.Sprintf("anonymize=%v block %d", anonymize, block)
			entries, refs := refColumn(toks)
			if !slices.Equal(a.client.entries, entries) || !slices.Equal(a.client.refs, refs) {
				t.Fatalf("%s: client column differs from the reference", at)
			}
			for i, col := range []struct {
				got  *dictCol
				vals []string
			}{{&a.vp, vp}, {&a.sni, sni}, {&a.cert, cert}, {&a.fqdn, fqdn}} {
				entries, refs := refColumn(col.vals)
				if !slices.Equal(col.got.entries, entries) || !slices.Equal(col.got.refs, refs) {
					t.Fatalf("%s: string column %d differs from the reference", at, i)
				}
			}
		}
	}
}
