module svrdb/benchmark

go 1.24

require svrdb v0.0.0

replace svrdb => ../
