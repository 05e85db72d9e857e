module gomdb/benchmark

go 1.22

require gomdb v0.0.0

replace gomdb => ../
