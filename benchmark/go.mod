module paradigms/benchmark

go 1.22

require paradigms v0.0.0

replace paradigms => ../
