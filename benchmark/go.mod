module gasf/benchmark

go 1.22

require gasf v0.0.0

replace gasf => ../
