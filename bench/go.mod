module rasc.dev/rasc/bench

go 1.22

require rasc.dev/rasc v0.0.0

replace rasc.dev/rasc => ../
