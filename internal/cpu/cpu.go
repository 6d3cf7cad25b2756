// Package cpu reports, once at start-up, the x86 extensions the
// repository's assembly kernels need: AES-NI for internal/aead, BMI2 and
// ADX for the MULX/ADCX/ADOX field kernels of internal/bn254 and
// internal/onionbox, and AVX-512 IFMA for their lane kernels. Each of
// those packages copies the flag it needs into its own selection variable
// (aesAsm, fieldAsm, laneAsm), which its tests may switch off; this
// package holds only the facts about the machine. Off amd64 every flag is
// false.
package cpu
