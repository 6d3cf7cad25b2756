//go:build !amd64

package aead

// Off amd64 AES runs only through aes.NewCipher, and these kernels are
// never called.

const aesAsmSupported = false

// aesAsm is always false here; the tests that run both paths read it.
var aesAsm = false

func expandKey(rk *roundKeys, key *[KeySize]byte)     { panic("aead: no AES-NI kernels") }
func encryptHashAndMask(rk *roundKeys, out *[32]byte) { panic("aead: no AES-NI kernels") }
func xorKeyStreamAES(rk *roundKeys, dst, src []byte)  { panic("aead: no AES-NI kernels") }
