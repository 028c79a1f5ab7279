module vrpower/bench

go 1.22

require vrpower v0.0.0

replace vrpower => ../
