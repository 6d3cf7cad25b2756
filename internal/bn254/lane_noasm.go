//go:build !amd64

package bn254

// There is no lane field here: laneAsm is always false, and
// PairMarshalledBatch pairs every entry on the scalar path.
const laneAsmSupported = false

var laneAsm = false

func laneMul(z, x, y *laneFe) { panic(errNoLanes) }
func laneAdd(z, x, y *laneFe) { panic(errNoLanes) }
func laneSub(z, x, y *laneFe) { panic(errNoLanes) }
func lane2Mul(z, x, y *lane2) { panic(errNoLanes) }
func lane2Square(z, x *lane2) { panic(errNoLanes) }
func lane2Add(z, x, y *lane2) { panic(errNoLanes) }
func lane2Sub(z, x, y *lane2) { panic(errNoLanes) }
func lane2MulXi(z, x *lane2)  { panic(errNoLanes) }
func lane6Add(z, x, y *lane6) { panic(errNoLanes) }
func lane6Sub(z, x, y *lane6) { panic(errNoLanes) }
func laneZeroRegs()           { panic(errNoLanes) }

const errNoLanes = "bn254: the lane field needs amd64"
