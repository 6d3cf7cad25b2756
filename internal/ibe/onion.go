package ibe

import (
	"errors"
	"io"
)

// This file implements the naive multi-PKG construction that §4.2 of the
// paper describes and rejects: onion-encrypting the message under each PKG's
// master public key in turn. It exists as the evaluation baseline for
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
