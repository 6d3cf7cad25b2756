package ibe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"testing"
)

// This file implements the naive multi-PKG construction that §4.2 of the
// paper describes and rejects: onion-encrypting the message under each PKG's
// master public key in turn. It is test code, the evaluation baseline for
// Anytrust-IBE (ablation A1 in EXPERIMENTS.md): ciphertext size and
// decryption time grow linearly with the number of PKGs, whereas
// Anytrust-IBE is constant in both.

// OnionOverhead returns the ciphertext expansion of the onion construction
// for n PKGs.
func OnionOverhead(n int) int { return n * Overhead }

// OnionEncrypt encrypts msg to identity under each master public key in
// turn (innermost layer is keys[len(keys)-1], matching the paper's
// presentation where server 1 decrypts first).
func OnionEncrypt(rand io.Reader, keys []*MasterPublicKey, identity string, msg []byte) ([]byte, error) {
	if len(keys) == 0 {
		return nil, errors.New("ibe: onion encryption requires at least one key")
	}
	ctxt := msg
	var err error
	for i := len(keys) - 1; i >= 0; i-- {
		ctxt, err = Encrypt(rand, keys[i], identity, ctxt)
		if err != nil {
			return nil, err
		}
	}
	return ctxt, nil
}

// OnionDecrypt peels all layers with per-PKG identity private keys, given in
// the same order as the encryption keys.
func OnionDecrypt(keys []*IdentityPrivateKey, ctxt []byte) ([]byte, bool) {
	msg := ctxt
	var ok bool
	for _, k := range keys {
		msg, ok = Decrypt(k, msg)
		if !ok {
			return nil, false
		}
	}
	return msg, true
}

// BenchmarkAnytrustVsOnion is ablation A1: Anytrust-IBE (the paper's
// contribution) vs the naive onion construction it replaces (§4.2).
// Anytrust decryption time and ciphertext size are constant in the number
// of PKGs; onion grows linearly in both.
func BenchmarkAnytrustVsOnion(b *testing.B) {
	msg := make([]byte, 64)
	for _, n := range []int{1, 3, 10} {
		var pubs []*MasterPublicKey
		var privs []*MasterPrivateKey
		for i := 0; i < n; i++ {
			pub, priv, err := Setup(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			pubs = append(pubs, pub)
			privs = append(privs, priv)
		}
		var idKeys []*IdentityPrivateKey
		for _, priv := range privs {
			idKeys = append(idKeys, Extract(priv, "bob@x.org"))
		}

		b.Run(fmt.Sprintf("anytrust/pkgs=%d", n), func(b *testing.B) {
			agg := AggregateMasterKeys(pubs...)
			combined := AggregatePrivateKeys(idKeys...)
			ctxt, err := Encrypt(rand.Reader, agg, "bob@x.org", msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := Decrypt(combined, ctxt); !ok {
					b.Fatal("decrypt failed")
				}
			}
			b.ReportMetric(float64(len(ctxt)), "ctxt-bytes")
		})
		b.Run(fmt.Sprintf("onion/pkgs=%d", n), func(b *testing.B) {
			ctxt, err := OnionEncrypt(rand.Reader, pubs, "bob@x.org", msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := OnionDecrypt(idKeys, ctxt); !ok {
					b.Fatal("decrypt failed")
				}
			}
			b.ReportMetric(float64(len(ctxt)), "ctxt-bytes")
		})
	}
}
