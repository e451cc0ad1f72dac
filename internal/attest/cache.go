package attest

import (
	"container/list"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"sync"
	"time"

	"revelio/internal/sev"
)

// proofShardCount shards the verified-report cache so concurrent
// verifiers (one per handshake on a busy node) don't serialize on one
// mutex. Must be a power of two.
const proofShardCount = 16

// DefaultReportCacheSize bounds the verifier's proof caches (entries
// across all shards, for each of the report and VCEK-chain caches).
const DefaultReportCacheSize = 4096

// proofKey is a SHA-256 digest naming a memoized result. For report
// proofs it covers the full serialized report (signed bytes plus
// signature): any bit flipped in the report changes the key, so tampered
// evidence can never hit a cached proof. For chain proofs it covers the
// (chip ID, TCB) pair the proven VCEK certifies, which a verifier knows
// before the VCEK arrives; a chain hit additionally requires the fetched
// VCEK's DER to equal the proven one (see VerifyReport), so a different
// certificate for the same pair misses and re-walks the chain.
type proofKey [sha256.Size]byte

// reportProofKey digests everything the ECDSA verification covers.
func reportProofKey(r *sev.Report) proofKey {
	h := sha256.New()
	h.Write(r.SignedBytes())
	h.Write(r.Signature)
	var k proofKey
	h.Sum(k[:0])
	return k
}

// chainProofKey names the chain proof for a VCEK certifying chip at tcb.
func chainProofKey(chip sev.ChipID, tcb uint64) proofKey {
	var buf [len(chip) + 8]byte
	copy(buf[:], chip[:])
	binary.BigEndian.PutUint64(buf[len(chip):], tcb)
	return sha256.Sum256(buf[:])
}

// proof is one cached positive verification result. Only successes are
// ever stored; failures always re-run the full pipeline. A proof is
// only served while the verifier's clock is inside the proving VCEK's
// validity window — the chain walk's CurrentTime check must not be
// outlived by its cached result.
type proof struct {
	key      proofKey
	vcek     *x509.Certificate // the chain-validated VCEK that proved the evidence
	rev      uint64            // policy revision at proof time
	notAfter time.Time         // earliest NotAfter in the proving chain: hard expiry
}

// proofCache is a sharded bounded LRU of positive verification results.
type proofCache struct {
	shards [proofShardCount]proofShard
}

type proofShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // holds *proof
	idx map[proofKey]*list.Element
}

func newProofCache(capacity int) *proofCache {
	if capacity <= 0 {
		capacity = DefaultReportCacheSize
	}
	perShard := capacity / proofShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &proofCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].lru = list.New()
		c.shards[i].idx = make(map[proofKey]*list.Element, perShard)
	}
	return c
}

func (c *proofCache) shard(k proofKey) *proofShard {
	return &c.shards[int(k[0])&(proofShardCount-1)]
}

// get returns the cached proof if present, minted at the given policy
// revision, AND still inside the proving certificate's validity window
// at time now; stale entries are dropped on sight.
func (c *proofCache) get(k proofKey, rev uint64, now time.Time) (*proof, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[k]
	if !ok {
		return nil, false
	}
	p := el.Value.(*proof)
	if p.rev != rev || now.After(p.notAfter) {
		s.lru.Remove(el)
		delete(s.idx, k)
		return nil, false
	}
	s.lru.MoveToFront(el)
	return p, true
}

// put records a positive proof, evicting the least recently used entry
// of its shard when full.
func (c *proofCache) put(p *proof) {
	s := c.shard(p.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[p.key]; ok {
		s.lru.MoveToFront(el)
		el.Value = p
		return
	}
	s.idx[p.key] = s.lru.PushFront(p)
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.idx, oldest.Value.(*proof).key)
	}
}

// len reports the total number of cached proofs across shards.
func (c *proofCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
