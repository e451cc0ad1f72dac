package gateway

import (
	"crypto/rand"
	"crypto/tls"
	"sync"
)

// TLS session resumption skips certificate verification on both of the
// gateway's planes: an upstream resumption skips VerifyPeerCertificate
// (the RA-TLS evidence check), a downstream resumption skips
// GetCertificate (the rotating fleet credential). Resumption is still
// wanted — it is the difference between one signature and zero on the
// reconnect path at high connection counts — so both planes fence it by
// the gateway's policy epoch instead of disabling it:
//
//   - upstream, epochSessionCache tags every stored session with the
//     epoch it was minted under and refuses to resume across a bump, so
//     a revocation forces the next connection through a full, verified
//     handshake (and ratls.ProviderClientConfig's VerifyConnection
//     re-judges the evidence of the resumptions that are allowed);
//   - downstream, the session-ticket key rotates to a fresh random key
//     on every bump, so outstanding tickets die and clients re-enter
//     through GetCertificate.

// defaultSessionCacheSize bounds the upstream session cache; sessions
// are keyed per node address, so this only needs to cover the fleet.
const defaultSessionCacheSize = 256

// epochSessionCache is a tls.ClientSessionCache fenced by a monotone
// epoch (the gateway's policy epoch): sessions stored under an older
// epoch are never resumed, so the first connection after a bump is a
// full handshake against the node's current certificate.
type epochSessionCache struct {
	epoch func() uint64
	cap   int

	mu     sync.Mutex
	inner  tls.ClientSessionCache
	epochs map[string]uint64 // session key -> epoch at Put time
}

func newEpochSessionCache(epoch func() uint64, capacity int) *epochSessionCache {
	if capacity <= 0 {
		capacity = defaultSessionCacheSize
	}
	return &epochSessionCache{
		epoch:  epoch,
		cap:    capacity,
		inner:  tls.NewLRUClientSessionCache(capacity),
		epochs: make(map[string]uint64, capacity),
	}
}

func (c *epochSessionCache) Put(key string, cs *tls.ClientSessionState) {
	c.mu.Lock()
	if cs == nil {
		delete(c.epochs, key)
	} else {
		c.epochs[key] = c.epoch()
		// Bound the bookkeeping: the inner LRU holds at most cap live
		// sessions, so entries beyond a small multiple belong to silently
		// evicted ones. Dropping a surplus entry is fail-closed — a
		// still-live session just re-handshakes.
		for len(c.epochs) > 2*c.cap {
			for k := range c.epochs {
				if k != key {
					delete(c.epochs, k)
					break
				}
			}
		}
	}
	inner := c.inner
	c.mu.Unlock()
	inner.Put(key, cs)
}

func (c *epochSessionCache) Get(key string) (*tls.ClientSessionState, bool) {
	c.mu.Lock()
	epoch, ok := c.epochs[key]
	stale := ok && epoch != c.epoch()
	if !ok || stale {
		delete(c.epochs, key)
	}
	inner := c.inner
	c.mu.Unlock()
	if !ok || stale {
		inner.Put(key, nil) // drop the unusable session
		return nil, false
	}
	return inner.Get(key)
}

// flush drops every stored session. The epoch fence alone already
// refuses stale resumptions; flushing on the bump additionally frees
// the ticket bytes promptly instead of leaving dead sessions to age out
// of the LRU.
func (c *epochSessionCache) flush() {
	c.mu.Lock()
	c.inner = tls.NewLRUClientSessionCache(c.cap)
	clear(c.epochs)
	c.mu.Unlock()
}

// rotateTicketKey installs a fresh random session-ticket key on the
// downstream TLS config, replacing — not appending to — the previous
// set, so every ticket minted before the call stops resuming. Called
// at Start (taking ownership of ticket keys from crypto/tls's automatic
// rotation) and on every policy-epoch bump.
func rotateTicketKey(cfg *tls.Config) {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		// crypto/rand does not fail on supported platforms; if it ever
		// does, keeping the previous key is the only option that neither
		// breaks live handshakes nor installs a guessable key.
		return
	}
	cfg.SetSessionTicketKeys([][32]byte{key})
}
