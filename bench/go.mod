module alpenhorn/bench

go 1.21

require alpenhorn v0.0.0

replace alpenhorn => ../
