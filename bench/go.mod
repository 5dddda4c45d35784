module cobcast/bench

go 1.22

require cobcast v0.0.0

replace cobcast => ../
