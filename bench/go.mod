module trajforge/bench

go 1.22

require trajforge v0.0.0

replace trajforge => ../
