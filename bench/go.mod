module vadalink/bench

go 1.22

require vadalink v0.0.0

replace vadalink => ../
