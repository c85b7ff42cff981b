package main

import "vcloud/internal/vnet"

// Adapter for vnet: the facade re-exports Node but not the address type.

type addr = vnet.Addr
