"""LiDAR perception: occupancy grids, clustering, ellipse fits, tracking."""
