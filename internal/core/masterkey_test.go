package core

import (
	"crypto/rand"
	"testing"

	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// TestRoundMasterKeyCachedWithSettings pins the round's aggregated master
// key to the lifetime of the round's cached settings: built once while they
// are cached (a retried submit reuses it), on either tier, rebuilt after eviction,
// and a malformed PKG key is an error naming the PKG, never a cached key.
func TestRoundMasterKeyCachedWithSettings(t *testing.T) {
	c := newBacklogClient(&backlogHandler{})
	settings := func(round uint32, version uint8) *wire.RoundSettings {
		rs := &wire.RoundSettings{Service: wire.AddFriend, Round: round, PairingVersion: version}
		for i := 0; i < 3; i++ {
			pub, _, err := ibe.Setup(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			rs.PKGs = append(rs.PKGs, wire.PKGRoundKey{MasterKey: pub.Marshal()})
		}
		return rs
	}

	for _, version := range []uint8{0, 2} {
		rs := settings(uint32(10+version), version)
		c.cacheSettings(rs)
		first, err := c.roundMasterKey(rs)
		if err != nil {
			t.Fatal(err)
		}
		again, err := c.roundMasterKey(rs)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("pairing version %d: master key rebuilt while its settings are cached", version)
		}
	}

	evicted := settings(1, 2)
	c.cacheSettings(evicted)
	before, err := c.roundMasterKey(evicted)
	if err != nil {
		t.Fatal(err)
	}
	for r := uint32(100); r < 100+settingsCacheSize; r++ {
		c.cacheSettings(&wire.RoundSettings{Service: wire.Dialing, Round: r})
	}
	after, err := c.roundMasterKey(evicted)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("master key outlived its evicted settings")
	}

	bad := settings(2, 2)
	bad.PKGs[1].MasterKey = make([]byte, 7)
	c.cacheSettings(bad)
	if _, err := c.roundMasterKey(bad); err == nil {
		t.Fatal("malformed PKG master key accepted")
	}
}
